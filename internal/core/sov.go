package core

import (
	"fmt"
	"math"
	"time"

	"sov/internal/canbus"
	"sov/internal/detect"
	"sov/internal/mathx"
	"sov/internal/models"
	"sov/internal/obs"
	"sov/internal/planning"
	"sov/internal/rpr"
	"sov/internal/sched"
	"sov/internal/sensors"
	"sov/internal/sim"
	"sov/internal/track"
	"sov/internal/vehicle"
	"sov/internal/world"
)

// planner abstracts the two planning backends.
type planner interface {
	Plan(planning.Input) planning.Plan
}

// SoV is the assembled on-vehicle system.
type SoV struct {
	cfg    Config
	world  *world.World
	route  world.Route
	lane   world.Lane
	engine *sim.Engine
	rng    *sim.RNG
	// scene is the one obstacle frame the rigs, the detector, the complexity
	// model and the physics step share: each trajectory once per instant.
	scene *world.Frame

	veh      *vehicle.Vehicle
	ecu      *vehicle.ECU
	bus      *canbus.Bus
	det      *detect.Detector
	radarRig *sensors.RadarRig
	sonarRig *sensors.SonarRig
	tracker  *track.RadarTracker
	plan     planner
	lat      *latencyModel
	rprMgr   *rpr.Manager
	sched    *sched.Scheduler

	battery *vehicle.Battery
	tracer  *Tracer

	// Telemetry attachments (nil unless Attach* was called before Run).
	obsM  *coreMetrics
	spans *obs.SpanWriter
	box   *obs.FlightRecorder

	report  Report
	cycle   int
	seq     uint16
	started bool

	// Control-loop state: the one recycled cycle frame, the in-flight
	// command deadlines behind the virtual-time pipeline-depth metric, and
	// the recycled delivery slots that keep steady-state scheduling
	// allocation-free.
	frame       cycleFrame
	outstanding []time.Duration
	freeSlots   []*deliverySlot

	// OnPhysicsStep, when set, observes each physics step; returning true
	// stops the run (used by scenario probes).
	OnPhysicsStep func(now time.Duration, st vehicle.State) (stop bool)
}

// New assembles an SoV over a world. The vehicle starts at the head of the
// world's first lane (or the origin when the world has no lanes).
func New(cfg Config, w *world.World) *SoV {
	rng := sim.NewRNG(cfg.Seed)
	lane := world.Lane{Start: mathx.Vec2{}, End: mathx.Vec2{X: 1000}, Width: 3}
	route := world.Route{Lanes: []world.Lane{lane}}
	if len(w.Lanes) > 0 {
		lane = w.Lanes[0]
		route = world.Route{Lanes: w.Lanes}
	}
	// Fleet runs stagger vehicles along a shared region loop: walk the
	// route to the requested centerline offset (wrapping around closed
	// routes) and start there instead of at the first lane's head.
	startPos, startHeading := lane.Start, lane.Direction().Angle()
	if cfg.StartOffsetM > 0 && route.TotalLength() > 0 {
		off := math.Mod(cfg.StartOffsetM, route.TotalLength())
		for _, l := range route.Lanes {
			if off <= l.Length() {
				startPos = l.CenterAt(off)
				startHeading = l.Direction().Angle()
				lane = l
				break
			}
			off -= l.Length()
		}
	}
	veh := vehicle.New(cfg.Vehicle, vehicle.State{
		Pos:     startPos,
		Heading: startHeading,
		Speed:   cfg.TargetSpeed,
	})
	s := &SoV{
		cfg:      cfg,
		world:    w,
		route:    route,
		lane:     lane,
		engine:   sim.NewEngine(),
		rng:      rng,
		scene:    world.NewFrame(w),
		veh:      veh,
		ecu:      vehicle.NewECU(veh),
		bus:      canbus.NewBus(),
		det:      detect.New(cfg.Detector, w, rng.Fork()),
		radarRig: sensors.NewRadarRig(w, rng.Fork()),
		sonarRig: sensors.NewSonarRig(w, rng.Fork()),
		tracker:  track.NewRadarTracker(),
		lat:      newLatencyModel(cfg, rng.Fork()),
	}
	if cfg.EMPlanner {
		s.plan = planning.NewEMPlanner()
	} else {
		s.plan = planning.NewMPC(planning.DefaultMPCConfig())
	}
	if cfg.RPREnabled {
		s.rprMgr = rpr.NewManager()
	}
	s.battery = vehicle.NewBattery(models.DefaultEnergyModel().CapacityKWh)
	if cfg.Sched {
		sc := sched.DefaultConfig()
		sc.ControlRate = cfg.ControlRate
		if cfg.Cameras > 1 {
			sc.Cameras = cfg.Cameras
		}
		if cfg.AmbientC > 0 {
			sc.AmbientC = cfg.AmbientC
		}
		sc.Static = cfg.SchedStatic
		// -quant builds the perception stack on the int8 kernels, so the
		// scheduler may not float the operating point back out from under it.
		sc.QuantFloor = cfg.Quant
		if cfg.SchedMapping != "" {
			m, err := sched.ParseMapping(cfg.SchedMapping)
			if err != nil {
				panic(err)
			}
			sc.Mapping = m
		}
		sch, err := sched.New(sc)
		if err != nil {
			panic(err)
		}
		s.sched = sch
	}
	s.det.Frame = s.scene
	s.radarRig.UseFrame(s.scene)
	s.sonarRig.UseFrame(s.scene)
	s.report.init(cfg.LeanReport)
	s.report.QuantizedPerception = cfg.Quant
	return s
}

// Battery exposes the pack for long-run inspection.
func (s *SoV) Battery() *vehicle.Battery { return s.battery }

// Cycles returns the number of control cycles captured so far (live — the
// fleet substrate reads it between epochs without finishing the run).
func (s *SoV) Cycles() int { return s.cycle }

// CollisionCount returns the obstacle contacts recorded so far.
func (s *SoV) CollisionCount() int { return s.report.Collisions }

// ReactiveCount returns the reactive-path engagements recorded so far
// (live — fleet telemetry reads it between epochs).
func (s *SoV) ReactiveCount() int { return s.report.ReactiveEngagements }

// Vehicle exposes the vehicle for scenario assertions.
func (s *SoV) Vehicle() *vehicle.Vehicle { return s.veh }

// pose returns the vehicle's current pose.
func (s *SoV) pose() world.Pose {
	st := s.veh.State()
	return world.Pose{Pos: st.Pos, Heading: st.Heading}
}

// Run executes the simulation for the given duration and returns the
// accumulated report. It is Start + AdvanceTo(duration) + Finish — the
// fleet substrate calls the three phases itself to advance many vehicles
// in lockstep epochs.
func (s *SoV) Run(duration time.Duration) *Report {
	s.Start()
	s.AdvanceTo(duration)
	return s.Finish(duration)
}

// Start arms the control loop: it schedules the periodic physics, control,
// and reactive events.
// Idempotent — a second Start (or a Run after a Start) is a no-op, so an
// epoch driver can Start once and AdvanceTo repeatedly.
func (s *SoV) Start() {
	if s.started {
		return
	}
	s.started = true
	ctrlPeriod := time.Duration(float64(time.Second) / s.cfg.ControlRate)
	physPeriod := time.Duration(float64(time.Second) / s.cfg.PhysicsRate)
	reactiveRate := s.cfg.ReactiveRate
	if reactiveRate <= 0 {
		reactiveRate = s.cfg.RadarRate
	}
	reactivePeriod := time.Duration(float64(time.Second) / reactiveRate)

	s.engine.Every(physPeriod, "physics", func() { s.physicsStep(physPeriod) })
	s.engine.Every(ctrlPeriod, "control", s.controlCycle)
	if s.cfg.ReactivePath {
		s.engine.Every(reactivePeriod, "reactive", s.reactiveCheck)
	}
}

// AdvanceTo processes events up to the absolute virtual time t. Repeated
// calls with increasing horizons advance the run incrementally; each call
// leaves the clock exactly at t (unless the engine stopped — battery
// exhaustion or a scenario probe — which Halted reports).
func (s *SoV) AdvanceTo(t time.Duration) {
	s.engine.Run(t)
}

// Halted reports whether the engine stopped before its last horizon: the
// periodic events are gone, so further AdvanceTo calls cannot revive the
// vehicle.
func (s *SoV) Halted() bool { return s.engine.Stopped() }

// Finish closes out an incrementally advanced run: it finalizes the report
// over the given total duration and publishes the run-summary metrics.
func (s *SoV) Finish(duration time.Duration) *Report {
	if s.sched != nil {
		st := s.sched.Snapshot()
		s.report.Sched = &st
	}
	s.report.finish(duration, s)
	s.publishRunMetrics()
	return &s.report
}

// physicsStep advances the vehicle and records safety metrics.
func (s *SoV) physicsStep(dt time.Duration) {
	// Drain the pack at Pv + PAD; an empty pack ends the drive.
	load := s.cfg.Vehicle.BasePowerKW + models.DefaultPowerBudget().TotalKW()
	if !s.battery.Drain(load, dt) {
		s.engine.Stop()
		return
	}
	st := s.veh.Step(dt)
	now := s.engine.Now()
	states := s.scene.At(now)
	for i, o := range s.world.Obstacles {
		// Hypot(dx, dy) ≥ max(|dx|, |dy|): when that bound clears the footprint
		// by MinClearance, the exact distance fires neither branch below.
		d := st.Pos.Sub(states[i].Pos)
		if far := max(math.Abs(d.X), math.Abs(d.Y)) - o.Radius; far >= 0 && far >= s.report.MinClearance {
			continue
		}
		clear := d.Norm() - o.Radius
		if clear < s.report.MinClearance {
			s.report.MinClearance = clear
		}
		if clear < 0 && !s.report.collided[o.ID] {
			s.report.collided[o.ID] = true
			s.report.Collisions++
			if s.box != nil {
				s.box.Trigger(obs.TriggerCollision, ms(now))
			}
		}
	}
	if s.ecu.OverrideActive() {
		s.report.reactiveSteps++
	}
	off := s.lane.LateralOffset(st.Pos)
	s.report.lateralSumSq += off * off
	s.report.physSteps++
	if s.OnPhysicsStep != nil && s.OnPhysicsStep(now, st) {
		s.engine.Stop()
	}
}

// controlCycle runs one proactive-path iteration: capture, perceive, plan,
// record, and schedule the command's delivery after the drawn computing
// latency.
func (s *SoV) controlCycle() {
	fr := &s.frame
	s.captureInto(fr)
	s.perceiveFrame(fr)
	s.planFrame(fr)
	s.recordCycle(fr)
	s.tracer.record(fr)
	if !fr.encodeOK {
		return
	}
	// The command is computed Tcomp after capture, then crosses the CAN
	// bus (Tdata) and takes effect after Tmech inside the vehicle model.
	// The CAN frame is copied into a recycled delivery slot: the cycle
	// frame is reused next cycle, long before this delivery fires.
	s.scheduleDelivery(fr.d.Tcomp+fr.tdata, fr.cmdFrame)
}

// deliverySlot carries one in-flight CAN frame to its delivery event. The
// fire closure is built once per slot so steady-state scheduling does not
// allocate; fired slots return to the SoV's free list.
type deliverySlot struct {
	frame canbus.Frame
	fire  func()
}

// scheduleDelivery enqueues a command's arrival at the ECU after delay.
func (s *SoV) scheduleDelivery(delay time.Duration, frame canbus.Frame) {
	var sl *deliverySlot
	if n := len(s.freeSlots); n > 0 {
		sl = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		sl = &deliverySlot{}
		sl.fire = func() {
			if err := s.ecu.Receive(sl.frame); err == nil {
				s.report.CommandsDelivered++
			}
			s.freeSlots = append(s.freeSlots, sl)
		}
	}
	sl.frame = frame
	s.engine.Schedule(delay, "command-delivery", sl.fire)
}

// reactiveCheck is the last line of defense: radar (and sonar) distances go
// straight to the ECU, overriding the proactive path when an object is
// inside the reaction envelope (Sec. IV).
func (s *SoV) reactiveCheck() {
	now := s.engine.Now()
	pose := s.pose()
	st := s.veh.State()
	if st.Speed < 0.05 {
		return
	}
	// Nearest object in the narrow forward cone, from the radar rig's
	// forward sector backed by the sonar ring.
	nearest := math.Inf(1)
	if ret, ok := s.radarRig.NearestInSector(now, pose, 0, 0.35); ok {
		nearest = ret.VehiclePos.Norm()
	}
	if d, ok := s.sonarRig.NearestInSector(now, pose, 0, 0.5); ok && d < nearest {
		nearest = d
	}
	if math.IsInf(nearest, 1) {
		return
	}
	// Trigger envelope: braking distance + distance covered during the
	// reactive latency + mechanical latency + the obstacle's footprint
	// margin.
	reaction := (reactiveLatency + s.cfg.Vehicle.MechLatency).Seconds()
	trigger := s.veh.StopDistanceFrom(st.Speed) + st.Speed*reaction + reactiveMarginM + 0.3
	if nearest > trigger {
		return
	}
	s.report.ReactiveEngagements++
	if s.box != nil {
		s.box.Trigger(obs.TriggerReactive, ms(now))
	}
	frame, err := canbus.EncodeCommand(canbus.IDReactiveOverride, canbus.Command{EStop: true, Seq: s.seq})
	if err != nil {
		s.report.EncodeErrors++
		return
	}
	s.engine.Schedule(reactiveLatency, "reactive-override", func() {
		_ = s.ecu.Receive(frame)
	})
}

// String summarizes the SoV state.
func (s *SoV) String() string {
	st := s.veh.State()
	return fmt.Sprintf("sov: t=%v pos=(%.1f,%.1f) v=%.1f cycles=%d",
		s.engine.Now(), st.Pos.X, st.Pos.Y, st.Speed, s.cycle)
}
