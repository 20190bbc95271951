package core

import (
	"time"

	"sov/internal/obs"
)

// This file wires the unified telemetry layer (internal/obs) into the
// control loop. The split follows the determinism boundary documented in
// dataflow.go: everything recorded per cycle derives from frame snapshots
// (capture-time values), so metrics, spans, and flight-recorder content on
// the virtual track are byte-identical run to run.

// Span thread lanes on the virtual-time track, one per control-loop stage.
// The order mirrors the causal chain: capture → sensing → perception
// {depth, detect, track, vio} → planning → deliver (CAN) → actuate (Tmech).
const (
	tidCapture = 1 + iota
	tidSensing
	tidPerception
	tidDepth
	tidDetect
	tidTrack
	tidVIO
	tidPlanning
	tidDeliver
	tidActuate
	// tidSched carries the online scheduler's decision events; the lane is
	// only declared when the scheduler is attached, so trace output without
	// -sched is unchanged.
	tidSched
)

// Span names are package constants so the hot record path never builds
// strings (see obs.SpanWriter's allocation contract).
const (
	spanCapture    = "capture"
	spanSensing    = "sensing"
	spanPerception = "perception"
	spanDepth      = "depth"
	spanDetect     = "detect"
	spanTrack      = "track"
	spanVIO        = "vio"
	spanPlanning   = "planning"
	spanDeliver    = "deliver"
	spanActuate    = "actuate"
	spanSched      = "sched"
	spanSchedRemap = "sched-remap"
	spanSchedOp    = "sched-op-switch"
	spanSchedSwap  = "sched-rpr-swap"
)

// coreMetrics bundles the SoV's registry handles. The steady-state handles
// are created at attach time; run-summary metrics register lazily at the
// first publish so repeated Runs on one SoV update rather than re-register.
type coreMetrics struct {
	reg *obs.Registry

	// Steady-state instruments (touched every cycle; allocation-free).
	cycles     *obs.Counter
	delivered  *obs.Counter
	blocked    *obs.Counter
	reactive   *obs.Counter
	encodeErr  *obs.Counter
	collisions *obs.Counter
	tcompMs    *obs.Histogram
	e2eMs      *obs.Histogram
	inflightH  *obs.Histogram

	// Scheduler decision counters; nil unless the scheduler is attached so
	// the exposition without -sched is byte-stable against its goldens.
	schedRemaps     *obs.Counter
	schedOpSwitches *obs.Counter
	schedSwaps      *obs.Counter

	// Lazily registered run-summary handles, plus the previously published
	// totals so cumulative sources (ECU, rigs) publish deltas and stay
	// monotone counters across repeated Runs.
	counters map[string]*obs.Counter
	gauges   map[string]*obs.Gauge
	prev     map[string]int64
}

// AttachMetrics registers the control loop's steady-state instruments on reg
// and arranges for run-summary metrics (safety, energy, subsystem activity)
// to be published at the end of each Run. Call before Run.
func (s *SoV) AttachMetrics(reg *obs.Registry) {
	m := &coreMetrics{
		reg:      reg,
		counters: make(map[string]*obs.Counter),
		gauges:   make(map[string]*obs.Gauge),
		prev:     make(map[string]int64),
	}
	m.cycles = reg.Counter("sov_cycles_total", "control cycles captured", obs.ClassVirtual)
	m.delivered = reg.Counter("sov_commands_delivered_total", "commands accepted by the ECU", obs.ClassVirtual)
	m.blocked = reg.Counter("sov_blocked_cycles_total", "cycles where the planner found no feasible trajectory", obs.ClassVirtual)
	m.reactive = reg.Counter("sov_reactive_engagements_total", "reactive-path safety engagements", obs.ClassVirtual)
	m.encodeErr = reg.Counter("sov_encode_errors_total", "commands that failed CAN encoding", obs.ClassVirtual)
	m.collisions = reg.Counter("sov_collisions_total", "obstacle contacts", obs.ClassVirtual)
	m.tcompMs = reg.Histogram("sov_tcomp_ms", "per-cycle computing latency Tcomp (ms)", obs.ClassVirtual, 0, 800, 40)
	m.e2eMs = reg.Histogram("sov_e2e_ms", "end-to-end latency Tcomp+Tdata+Tmech (ms)", obs.ClassVirtual, 0, 800, 40)
	m.inflightH = reg.Histogram("sov_inflight_commands", "commands in flight at capture (virtual pipeline depth)", obs.ClassVirtual, 0, 8, 8)
	if s.sched != nil {
		m.schedRemaps = reg.Counter("sov_sched_remaps_total", "online scheduler task remappings", obs.ClassVirtual)
		m.schedOpSwitches = reg.Counter("sov_sched_op_switches_total", "online scheduler quant/float operating-point switches", obs.ClassVirtual)
		m.schedSwaps = reg.Counter("sov_sched_rpr_swaps_total", "RPR bitstream swaps charged by the scheduler", obs.ClassVirtual)
	}
	s.obsM = m
}

// AttachSpans streams per-cycle stage spans of subsequent runs to sw. Call
// before Run; the caller owns Close.
func (s *SoV) AttachSpans(sw *obs.SpanWriter) {
	sw.DeclareProcess(obs.PIDVirtual, "sov virtual time")
	sw.DeclareThread(obs.PIDVirtual, tidCapture, spanCapture)
	sw.DeclareThread(obs.PIDVirtual, tidSensing, spanSensing)
	sw.DeclareThread(obs.PIDVirtual, tidPerception, spanPerception)
	sw.DeclareThread(obs.PIDVirtual, tidDepth, spanDepth)
	sw.DeclareThread(obs.PIDVirtual, tidDetect, spanDetect)
	sw.DeclareThread(obs.PIDVirtual, tidTrack, spanTrack)
	sw.DeclareThread(obs.PIDVirtual, tidVIO, spanVIO)
	sw.DeclareThread(obs.PIDVirtual, tidPlanning, spanPlanning)
	sw.DeclareThread(obs.PIDVirtual, tidDeliver, spanDeliver)
	sw.DeclareThread(obs.PIDVirtual, tidActuate, spanActuate)
	if s.sched != nil {
		sw.DeclareThread(obs.PIDVirtual, tidSched, spanSched)
	}
	s.spans = sw
}

// AttachFlightRecorder feeds every control cycle of subsequent runs into the
// recorder's ring and raises its anomaly triggers. Call before Run; the
// caller owns Close.
func (s *SoV) AttachFlightRecorder(f *obs.FlightRecorder) { s.box = f }

// observeCycleMetrics records the capture-time steady-state metrics. Called
// at the end of captureInto, on the engine thread.
//
//sov:hotpath
func (s *SoV) observeCycleMetrics(fr *cycleFrame) {
	m := s.obsM
	if m == nil {
		return
	}
	m.cycles.Inc()
	m.tcompMs.Observe(ms(fr.d.Tcomp))
	m.inflightH.Observe(float64(fr.inflight))
	if m.schedRemaps != nil {
		if fr.schedRemap {
			m.schedRemaps.Inc()
		}
		if fr.schedOpSwitch {
			m.schedOpSwitches.Inc()
		}
		if fr.schedSwap > 0 {
			m.schedSwaps.Inc()
		}
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// observeE2E files one cycle's end-to-end latency with the report and, when
// attached, the metrics registry.
func (s *SoV) observeE2E(total time.Duration) {
	s.report.observeE2E(total)
	if s.obsM != nil {
		s.obsM.e2eMs.Observe(ms(total))
	}
}

// recordSpans emits one cycle's stage spans from frame snapshots. Runs on
// the plan stage (the only SpanWriter caller during a run); the writer's
// sort-at-Close keeps each lane monotonic regardless of latency overlap
// between cycles.
//
//sov:hotpath
func (s *SoV) recordSpans(fr *cycleFrame) {
	sw := s.spans
	if sw == nil {
		return
	}
	t0 := fr.t0
	c := fr.cycle
	// Capture is instantaneous in virtual time: a zero-duration anchor
	// carrying the cycle id.
	sw.Span(obs.PIDVirtual, tidCapture, spanCapture, "", c, t0, 0)
	sw.Span(obs.PIDVirtual, tidSensing, spanSensing, spanCapture, c, t0, fr.d.Sensing)
	pStart := t0 + fr.d.Sensing
	sw.Span(obs.PIDVirtual, tidPerception, spanPerception, spanSensing, c, pStart, fr.d.Perception)
	// Perception's concurrent leaves: depth and detect start with the stage;
	// track chains serially after detect; vio (localization) races the
	// scene-understanding group (latencyModel.draw).
	sw.Span(obs.PIDVirtual, tidDepth, spanDepth, spanPerception, c, pStart, fr.d.Depth)
	sw.Span(obs.PIDVirtual, tidDetect, spanDetect, spanPerception, c, pStart, fr.d.Detection)
	sw.Span(obs.PIDVirtual, tidTrack, spanTrack, spanPerception, c, pStart+fr.d.Detection, fr.d.Tracking)
	sw.Span(obs.PIDVirtual, tidVIO, spanVIO, spanPerception, c, pStart, fr.d.Localization)
	sw.Span(obs.PIDVirtual, tidPlanning, spanPlanning, spanPerception, c, pStart+fr.d.Perception, fr.d.Planning)
	sw.Span(obs.PIDVirtual, tidDeliver, spanDeliver, spanPlanning, c, t0+fr.d.Tcomp, fr.tdata)
	sw.Span(obs.PIDVirtual, tidActuate, spanActuate, spanDeliver, c, t0+fr.d.Tcomp+fr.tdata, s.cfg.Vehicle.MechLatency)
	// Scheduler decision events, snapshotted into the frame at capture so
	// this (plan-stage) emitter stays the only SpanWriter caller.
	if fr.schedRemap {
		sw.Span(obs.PIDVirtual, tidSched, spanSchedRemap, spanCapture, c, t0, 0)
	}
	if fr.schedOpSwitch {
		sw.Span(obs.PIDVirtual, tidSched, spanSchedOp, spanCapture, c, t0, 0)
	}
	if fr.schedSwap > 0 {
		sw.Span(obs.PIDVirtual, tidSched, spanSchedSwap, spanCapture, c, t0, fr.schedSwap)
	}
}

// recordBox files one cycle with the flight recorder. Runs on the plan
// stage; all fields are capture-time snapshots, so ring content is a
// function of virtual time alone.
//
//sov:hotpath
func (s *SoV) recordBox(fr *cycleFrame) {
	if s.box == nil {
		return
	}
	s.box.Record(obs.CycleRecord{
		Cycle:        fr.cycle,
		TMs:          fr.t0.Seconds() * 1000,
		X:            fr.st.Pos.X,
		Y:            fr.st.Pos.Y,
		Speed:        fr.st.Speed,
		SensingMs:    ms(fr.d.Sensing),
		PerceptionMs: ms(fr.d.Perception),
		PlanningMs:   ms(fr.d.Planning),
		TcompMs:      ms(fr.d.Tcomp),
		Objects:      fr.objects,
		Blocked:      fr.blocked,
		Reactive:     fr.overrideActive,
		InFlight:     fr.inflight,
	})
}

// counterSet publishes a cumulative total under name, registering the
// counter on first use and adding only the delta since the last publish so
// the metric stays monotone across repeated Runs.
func (m *coreMetrics) counterSet(name, help string, total int64) {
	c := m.counters[name]
	if c == nil {
		c = m.reg.Counter(name, help, obs.ClassVirtual)
		m.counters[name] = c
	}
	if d := total - m.prev[name]; d > 0 {
		c.Add(d)
	}
	m.prev[name] = total
}

// gaugeSet publishes a point-in-time value, registering on first use.
func (m *coreMetrics) gaugeSet(name, help string, v float64) {
	g := m.gauges[name]
	if g == nil {
		g = m.reg.Gauge(name, help, obs.ClassVirtual)
		m.gauges[name] = g
	}
	g.Set(v)
}

// publishRunMetrics files the run-summary metrics after report.finish: the
// virtual-time safety/energy/subsystem totals. Cold path — runs once per Run.
func (s *SoV) publishRunMetrics() {
	m := s.obsM
	if m == nil {
		return
	}
	r := &s.report

	// Vehicle + safety summary (virtual).
	m.gaugeSet("sov_distance_m", "odometer distance covered", r.DistanceM)
	m.gaugeSet("sov_min_clearance_m", "closest obstacle approach over the run", r.MinClearance)
	m.gaugeSet("sov_lateral_rms_m", "lane-keeping RMS error", r.LateralRMSM)
	m.gaugeSet("sov_proactive_fraction", "share of driving time not under reactive override", r.ProactiveFraction)
	m.gaugeSet("sov_ad_energy_wh", "autonomous-driving system energy over the run", r.ADEnergyWh)
	m.gaugeSet("sov_battery_soc", "battery state of charge at end of run", s.battery.SoC)

	// Online scheduler summary (virtual: the thermal projection is a pure
	// function of virtual-time duty EWMAs).
	if s.sched != nil {
		m.gaugeSet("sov_sched_temp_c", "scheduler float-equivalent steady temperature projection", s.sched.TempC())
		m.gaugeSet("sov_sched_quantized", "current operating point (1 = int8)", b2f(s.sched.Quantized()))
	}

	// ECU (virtual): every state transition happens at a virtual-time event.
	// An accepted override frame is a reactive engagement: the loop's
	// sov_reactive_engagements_total counts it.
	frames, rejected := s.ecu.Stats()
	m.counterSet("sov_ecu_frames_total", "CAN frames processed by the ECU", int64(frames))
	m.counterSet("sov_ecu_rejected_total", "malformed frames dropped by the ECU", int64(rejected))

	// Sensor rigs (virtual: engine-thread-only, virtual-time ordered). Every
	// reactive check queries the radar sector and then the sonar ring, so
	// the radar's sector queries count both.
	rs := s.radarRig.Stats()
	m.counterSet("sov_radar_scans_total", "per-unit radar scans", rs.Scans)
	m.counterSet("sov_radar_echoes_total", "merged radar returns", rs.Echoes)
	m.counterSet("sov_radar_sector_queries_total", "radar reactive-sector queries", rs.SectorQueries)
}
