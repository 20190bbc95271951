package core

import (
	"math"
	"time"

	"sov/internal/canbus"
	"sov/internal/detect"
	"sov/internal/fusion"
	"sov/internal/mathx"
	"sov/internal/planning"
	"sov/internal/rpr"
	"sov/internal/sched"
	"sov/internal/sensors"
	"sov/internal/track"
	"sov/internal/vehicle"
	"sov/internal/world"
)

// The control loop is split into three stages — capture, perceive, plan —
// that communicate through a cycleFrame and run back to back inside the
// control event.
//
// The split is drawn along the determinism boundary. Everything that touches
// shared mutable state or the coordinator RNG stream is in capture: the lane
// handover, the latency draw, the radar scan (its per-unit RNG streams
// interleave with the reactive path's scans), the shared-stream noise draws,
// the command sequence number, and the in-flight depth. Perceive and plan
// touch only state they own exclusively (the detector's forked RNG, the
// tracker, the planner's warm start) plus frame snapshots, and recordCycle
// (obs.go) emits every telemetry record from the finished frame, which keeps
// each a function of capture-time values.
// The stages run on the engine thread, serially: the paper's localization ∥
// scene-understanding parallelism lives in virtual time (latencyModel.draw
// takes Perception = max(loc, su)), not in host goroutines.

// cycleFrame carries one control cycle through the stages. The SoV owns one
// and reuses it every cycle; all slices are recycled buffers: stages
// truncate and refill them, never reallocate once warm.
type cycleFrame struct {
	// Capture-stage outputs.
	cycle          int
	t0             time.Duration
	pose           world.Pose
	st             vehicle.State
	lane           world.Lane
	complexity     float64
	d              latencyDraw
	seq            uint16
	noiseX, noiseY float64
	noiseH         float64
	tdata          time.Duration
	inflight       int
	overrideActive bool
	// Scheduler decisions snapshotted at capture, so recordCycle emits
	// their spans without touching scheduler state.
	schedRemap    bool
	schedOpSwitch bool
	schedSwap     time.Duration
	rig           []sensors.RigReturn
	returns       []sensors.RadarReturn

	// Perceive-stage outputs.
	dets    []detect.Object
	tracks  []track.RadarTrack
	estPose world.Pose
	fused   []fusion.FusedObject
	sync    fusion.SyncScratch

	// Plan-stage outputs.
	obstacles []planning.Obstacle
	objects   int
	blocked   bool
	cmdFrame  canbus.Frame
	encodeOK  bool
}

// captureInto runs the capture stage: everything RNG- or shared-state-
// dependent, in a fixed order, snapshotted into the frame.
func (s *SoV) captureInto(fr *cycleFrame) {
	s.cycle++
	fr.cycle = s.cycle
	fr.t0 = s.engine.Now()
	fr.pose = s.pose()
	fr.st = s.veh.State()

	// Route following: hand over to the next leg as the vehicle
	// progresses (the annotated lane map's job). The lookahead anchor
	// starts the corner handover while the vehicle still has the speed to
	// steer through it.
	lookahead := mathx.Clamp(fr.st.Speed*1.5, 2, 6)
	anchor := fr.pose.Pos.Add(mathx.Vec2{X: math.Cos(fr.pose.Heading), Y: math.Sin(fr.pose.Heading)}.Scale(lookahead))
	s.lane = s.route.Lanes[s.route.ActiveLane(anchor)]
	fr.lane = s.lane

	fr.complexity = s.scene.SceneComplexity(fr.pose, fr.t0)
	keyframe := s.cfg.KeyframeEvery > 0 && s.cycle%s.cfg.KeyframeEvery == 0
	if s.cfg.DynamicKeyframe && fr.complexity >= 0.6 {
		// Dynamic traffic extracts fresh features nearly every frame.
		keyframe = true
	}

	// The online scheduler runs at capture, in cycle order: its inputs
	// (battery SoC, keyframe schedule, the EWMAs fed by prior draws) are all
	// virtual-class, so the decision sequence — and therefore every
	// multiplier it hands the latency model — is identical across worker
	// counts.
	var tr *sched.Transform
	fr.schedRemap, fr.schedOpSwitch, fr.schedSwap = false, false, 0
	if s.sched != nil {
		var ev sched.Events
		tr, ev = s.sched.BeginCycle(s.battery.SoC, keyframe)
		fr.schedRemap, fr.schedOpSwitch = ev.Remapped, ev.OpSwitched
	}

	fr.d = s.lat.draw(fr.complexity, keyframe, tr)
	if s.sched != nil {
		// Feed the drawn latencies back before the RPR swap charge, so the
		// EWMAs track task compute, not front-end reconfiguration.
		s.sched.Observe(fr.d.Depth, fr.d.Detection, fr.d.Tracking, fr.d.Localization,
			!s.cfg.RadarTracking)
	}
	// RPR swap cost folds into localization when the front-end variant
	// changes (Sec. V-B3: < 3 ms). The scheduler may hold the extract
	// bitstream resident (sticky front-end) instead of following the
	// keyframe schedule; either way the swap latency is charged to the
	// cycle that triggered it.
	if s.rprMgr != nil {
		bs := rpr.BitstreamFeatureTrack
		if keyframe {
			bs = rpr.BitstreamFeatureExtract
		}
		if s.sched != nil {
			bs = s.sched.FrontEnd()
		}
		if res := s.rprMgr.Require(bs); res.Bytes > 0 {
			fr.d.Localization += res.Duration
			if fr.d.Localization > fr.d.Perception {
				fr.d.Perception = fr.d.Localization
			}
			fr.d.Tcomp = fr.d.Sensing + fr.d.Perception + fr.d.Planning
			if s.sched != nil {
				s.sched.NoteSwap(res.Duration)
				fr.schedSwap = res.Duration
			}
		}
	}

	// Pose-estimate noise is drawn at capture so the coordinator's RNG
	// stream keeps its order (dropout Bernoulli, then pose noise) whatever
	// the perceive stage draws from its own forked streams.
	locStd := localizationErrorStd
	if !s.cfg.HardwareSync {
		locStd *= syncErrorFactor
	}
	fr.noiseX = s.rng.Normal(0, locStd)
	fr.noiseY = s.rng.Normal(0, locStd)
	fr.noiseH = s.rng.Normal(0, locStd/2)

	// The radar scan stays at capture: its per-unit RNG streams are shared
	// with the reactive path's scans, so the draw order must follow the
	// virtual clock.
	fr.rig = s.radarRig.ScanAllInto(fr.rig[:0], fr.t0, fr.pose)
	fr.returns = fr.returns[:0]
	for _, rr := range fr.rig {
		fr.returns = append(fr.returns, sensors.RadarReturn{
			ObstacleID: rr.ObstacleID,
			Range:      rr.VehiclePos.Norm(),
			Bearing:    rr.VehicleBearing,
			RadialVel:  rr.RadialVel,
			Time:       rr.Time,
		})
	}

	// The command sequence number is assigned at capture — in virtual time
	// the cycle's command exists from its capture instant, which is what
	// the reactive override's Seq must reflect.
	s.seq++
	fr.seq = s.seq
	fr.tdata = s.bus.CommandLatency()
	fr.overrideActive = s.ecu.OverrideActive()

	// Pipeline depth in virtual time: commands captured earlier whose
	// delivery lies beyond this capture are still in flight — the paper's
	// pipelining (10 Hz commands against a ~164 ms Tcomp, Sec. V-C) is a
	// property of the latency model, not of host scheduling.
	n := 0
	for _, deadline := range s.outstanding {
		if deadline > fr.t0 {
			s.outstanding[n] = deadline
			n++
		}
	}
	s.outstanding = s.outstanding[:n]
	fr.inflight = len(s.outstanding)
	s.outstanding = append(s.outstanding, fr.t0+fr.d.Tcomp+fr.tdata)
}

// perceiveFrame runs the perception stage on a captured frame: camera
// detection, then radar-track maintenance, then spatial synchronization into
// the fused object list.
func (s *SoV) perceiveFrame(fr *cycleFrame) {
	s.perceiveDetect(fr)
	s.perceiveTrack(fr)
	fr.fused = fr.fused[:0]
	if s.cfg.RadarTracking {
		matches, ud, _ := fr.sync.SpatialSyncInto(fusion.DefaultSpatialSyncConfig(), fr.dets, fr.tracks)
		fr.fused = fusion.FuseAllInto(fr.fused, matches, ud)
	} else {
		for _, dt := range fr.dets {
			fr.fused = append(fr.fused, fusion.FusedObject{Object: dt, Velocity: dt.Vel})
		}
	}
}

func (s *SoV) perceiveDetect(fr *cycleFrame) {
	fr.dets = s.det.DetectInto(fr.dets[:0], fr.t0, fr.pose)
}

func (s *SoV) perceiveTrack(fr *cycleFrame) {
	fr.tracks = s.tracker.ObserveInto(fr.t0, fr.returns, fr.tracks[:0])
	// The planner consumes the *estimated* pose. With the hardware
	// synchronizer and map-mode VIO the error is a few centimeters;
	// without synchronization it inflates per the Fig. 11 studies, and
	// the lane-keeping loop feels it.
	fr.estPose = fr.pose
	fr.estPose.Pos = fr.estPose.Pos.Add(mathx.Vec2{X: fr.noiseX, Y: fr.noiseY})
	fr.estPose.Heading = mathx.WrapAngle(fr.estPose.Heading + fr.noiseH)
}

// planFrame runs the planning stage: lane-frame conversion, the planner,
// and command encoding.
func (s *SoV) planFrame(fr *cycleFrame) {
	p := s.plan.Plan(s.planningInput(fr))
	fr.blocked = p.Blocked
	fr.objects = len(fr.fused)
	cmd := p.Cmd
	cmd.Seq = fr.seq
	frame, err := canbus.EncodeCommand(canbus.IDControlCommand, cmd)
	fr.cmdFrame, fr.encodeOK = frame, err == nil
}

// planningInput converts fused perception output into lane coordinates,
// filling the frame's obstacle buffer.
func (s *SoV) planningInput(fr *cycleFrame) planning.Input {
	laneDir := fr.lane.Direction()
	laneAngle := laneDir.Angle()
	in := planning.Input{
		Speed:       fr.st.Speed,
		LaneOffset:  fr.lane.LateralOffset(fr.estPose.Pos),
		HeadingErr:  mathx.WrapAngle(fr.estPose.Heading - laneAngle),
		TargetSpeed: s.cfg.TargetSpeed,
		LaneWidth:   fr.lane.Width,
	}
	fr.obstacles = fr.obstacles[:0]
	for _, f := range fr.fused {
		worldPos := detect.ToWorld(fr.estPose, f.Object.Pos)
		rel := worldPos.Sub(fr.estPose.Pos)
		sAlong := rel.Dot(laneDir)
		if sAlong < -2 {
			continue // behind
		}
		velWorld := f.Velocity
		radius := f.Object.Radius
		if radius < 0.3 {
			radius = 0.3
		}
		fr.obstacles = append(fr.obstacles, planning.Obstacle{
			S:      sAlong,
			D:      fr.lane.LateralOffset(worldPos),
			VS:     velWorld.Dot(laneDir),
			VD:     velWorld.Dot(mathx.Vec2{X: -laneDir.Y, Y: laneDir.X}),
			Radius: radius,
		})
	}
	in.Obstacles = fr.obstacles
	return in
}
