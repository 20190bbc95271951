package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"sov/internal/core"
	"sov/internal/obs"
	"sov/internal/parallel"
	"sov/internal/world"
)

// vehicleLoad is the single-vehicle control loop, driven one control period
// at a time. Two workloads share it:
//
//   - cruise: the deployed configuration on the Fig. 10 characterisation
//     corridor. A keyframe every 5th cycle swaps the localization bitstream
//     in and out, so 2 of every 5 cycles run the RPR cycle model and rpr is
//     the largest layer.
//   - traffic: the same loop on the dense-pedestrian corridor with the online
//     scheduler and every observability sink attached. The scheduler keeps
//     the front-end bitstream resident, so rpr does almost nothing and
//     planning, sensors, sched and obs carry the time.
//
// An optimisation of the RPR model must move cruise and leave traffic
// alone; an MPC one moves traffic most.
type vehicleLoad struct {
	p       params
	traffic bool
	// segsPerSlice × periods control periods make one slice.
	segsPerSlice int
	periods      int
	period       time.Duration

	first *segment // built by setUp, consumed by slice 0
	dig   uint64

	// kept holds what the layer probes replay: the segments of the last
	// traced slice, with their per-cycle trace bytes.
	kept []keptSegment
}

// keptSegment is what the probes need from a driven segment.
type keptSegment struct {
	world *world.World
	cfg   core.Config
	recs  []core.TraceRecord // the segment's own per-cycle trace, parsed
}

// segment is one vehicle on one world, with whatever sinks the workload
// attaches.
type segment struct {
	idx    int
	cfg    core.Config
	world  *world.World
	sov    *core.SoV
	tracer *core.Tracer
	spans  *obs.SpanWriter
	box    *obs.FlightRecorder
	reg    *obs.Registry
	sink   *hashWriter
	raw    *bytes.Buffer // trace bytes, kept only for the probes
}

func newVehicleLoad(p params, traffic bool) *vehicleLoad {
	v := &vehicleLoad{p: p, traffic: traffic, period: 100 * time.Millisecond}
	if traffic {
		v.segsPerSlice, v.periods = 2, p.scaled(2400, 40)
	} else {
		v.segsPerSlice, v.periods = 1, p.scaled(3000, 40)
	}
	return v
}

func (v *vehicleLoad) name() string {
	if v.traffic {
		return "traffic"
	}
	return "cruise"
}

// segmentConfig is the effective core.Config of segment idx. Pipeline,
// Quant and Sched are set explicitly so the SOV_PIPELINE / SOV_QUANT
// environment switches cannot change a workload.
func (v *vehicleLoad) segmentConfig(idx int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Pipeline, cfg.PipelineForce, cfg.Quant, cfg.Sched = false, false, false, false
	cfg.Seed = v.p.seed*1000 + int64(idx)
	if v.traffic {
		cfg.Sched = true
		cfg.AmbientC = 45
		cfg.Cameras = 3
		cfg.DynamicKeyframe = true
		cfg.KeyframeEvery = 0
	}
	return cfg
}

func (v *vehicleLoad) config() any {
	return map[string]any{
		"core":                v.segmentConfig(0),
		"scenario":            map[bool]string{false: "core.CruiseScenario", true: "core.DynamicTrafficScenario"}[v.traffic],
		"segments_per_slice":  v.segsPerSlice,
		"periods_per_segment": v.periods,
		"control_period":      v.period.String(),
		"workers":             1,
		"sinks_attached":      v.traffic,
	}
}

// build assembles segment idx: world, vehicle and sinks. keep asks for the
// trace bytes to be retained beside their digest.
func (v *vehicleLoad) build(idx int, rec *recorder, acc *accum, keep bool) *segment {
	g := &segment{idx: idx, cfg: v.segmentConfig(idx), sink: newHashWriter()}
	t0 := now()
	if v.traffic {
		g.world = core.DynamicTrafficScenario(g.cfg.Seed)
	} else {
		g.world = core.CruiseScenario(g.cfg.Seed)
	}
	d := since(t0)
	rec.leaf("world.build", idx, t0, d)
	t1 := now()
	g.sov = core.New(g.cfg, g.world)
	var traceSink io.Writer = g.sink
	if keep {
		g.raw = &bytes.Buffer{}
		traceSink = io.MultiWriter(g.sink, g.raw)
	}
	if v.traffic {
		g.tracer = core.NewTracer(traceSink)
		g.sov.AttachTracer(g.tracer)
		g.reg = obs.NewRegistry()
		g.sov.AttachMetrics(g.reg)
		g.spans = obs.NewSpanWriter(g.sink)
		g.sov.AttachSpans(g.spans)
		g.box = obs.NewFlightRecorder(g.sink, 64, 3)
		g.sov.AttachFlightRecorder(g.box)
	} else if keep {
		// cruise runs with nothing attached; only the traced pass adds a
		// tracer, because the probes need the per-cycle state.
		g.tracer = core.NewTracer(g.raw)
		g.sov.AttachTracer(g.tracer)
	}
	d1 := since(t1)
	rec.leaf("core.new", idx, t1, d1)
	if acc != nil {
		acc.observe("world_build_ms", millis(d))
		acc.observe("core_new_ms", millis(d1))
	}
	return g
}

// setUp builds slice 0's first segment after driving a throwaway copy of it
// for a short warm-up, so set-up time covers world building, core.New and
// first-use growth of the loop's buffers.
func (v *vehicleLoad) setUp() (map[string]float64, error) {
	parallel.SetWorkers(1)
	warm := v.build(0, nil, nil, false)
	warm.sov.Start()
	n := v.periods / 20
	if n < 10 {
		n = 10
	}
	for p := 1; p <= n; p++ {
		warm.sov.AdvanceTo(time.Duration(p) * v.period)
	}
	if warm.sov.Halted() {
		return nil, fmt.Errorf("warm-up vehicle halted")
	}
	v.first = v.build(0, nil, nil, false)
	v.dig = 0
	return nil, nil
}

func (v *vehicleLoad) tearDown() { v.first = nil }

func (v *vehicleLoad) memoryBound() bool { return false }

func (v *vehicleLoad) digest() uint64 { return v.dig }

// slice drives segsPerSlice segments, each Start → AdvanceTo one control
// period at a time → Finish, then closes the sinks. World building and
// core.New are timed on their own and are not part of the slice's work time.
func (v *vehicleLoad) slice(i int, rec *recorder, acc *accum) error {
	parallel.SetWorkers(1)
	root := rec.begin("slice", i)
	defer rec.end(root)
	keep := rec != nil // a traced slice keeps its per-cycle trace for the probes
	if keep {
		v.kept = v.kept[:0]
	}
	firstOp := len(acc.opUS)
	defer func() { acc.cur.partsUS = acc.opUS[firstOp:] }()
	for k := 0; k < v.segsPerSlice; k++ {
		idx := i*v.segsPerSlice + k
		var g *segment
		if idx == 0 && v.first != nil && !keep {
			g, v.first = v.first, nil
		} else {
			g = v.build(idx, rec, acc, keep)
		}
		t0 := now()
		g.sov.Start()
		rec.leaf("core.start", idx, t0, since(t0))
		for p := 1; p <= v.periods; p++ {
			a := now()
			g.sov.AdvanceTo(time.Duration(p) * v.period)
			d := since(a)
			acc.opUS = append(acc.opUS, micros(d))
			rec.leaf("core.advance", idx, a, d)
		}
		tf := now()
		total := time.Duration(v.periods) * v.period
		rep := g.sov.Finish(total)
		if err := g.closeSinks(); err != nil {
			return err
		}
		rec.leaf("core.finish", idx, tf, since(tf))
		acc.cur.busy += since(t0)
		acc.cur.work += float64(rep.Cycles)
		v.check(g, rep, acc)
		if keep {
			recs, err := parseTrace(g.raw.Bytes())
			if err != nil {
				return fmt.Errorf("segment %d: own trace: %w", idx, err)
			}
			v.kept = append(v.kept, keptSegment{world: g.world, cfg: g.cfg, recs: recs})
		}
	}
	return nil
}

// closeSinks flushes every attached sink into the digest, inside the timed
// region: writing the trace out is part of what the traffic workload does.
func (g *segment) closeSinks() error {
	if g.tracer != nil {
		if _, err := g.tracer.Close(); err != nil {
			return fmt.Errorf("tracer: %w", err)
		}
	}
	if g.spans != nil {
		if _, err := g.spans.Close(); err != nil {
			return fmt.Errorf("span writer: %w", err)
		}
	}
	if g.box != nil {
		if _, err := g.box.Close(); err != nil {
			return fmt.Errorf("flight recorder: %w", err)
		}
	}
	if g.reg != nil {
		if err := g.reg.WriteText(g.sink, false); err != nil {
			return fmt.Errorf("metrics registry: %w", err)
		}
	}
	return nil
}

// check counts the segment's operations and failures and folds its
// virtual-time outputs into the digest.
func (v *vehicleLoad) check(g *segment, rep *core.Report, acc *accum) {
	acc.ops += int64(v.periods)
	acc.fail("encode_error", int64(rep.EncodeErrors))
	acc.fail("collision", int64(rep.Collisions))
	if rep.Cycles != v.periods {
		acc.fail("cycle_count", int64(abs(v.periods-rep.Cycles)))
	}
	if g.sov.Halted() {
		acc.fail("halted", 1)
	}
	// Commands still in flight at the horizon are not failures; more than a
	// handful undelivered means the CAN/ECU chain dropped frames.
	if missing := rep.Cycles - rep.CommandsDelivered - rep.EncodeErrors; missing > 4 {
		acc.fail("undelivered", int64(missing))
	}
	if m := rep.MeanTcompMS(); m < 80 || m > 300 {
		acc.fail("tcomp_out_of_band", 1)
	}
	acc.counts["cycles"] += float64(rep.Cycles)
	acc.counts["delivered"] += float64(rep.CommandsDelivered)
	acc.counts["blocked"] += float64(rep.BlockedCycles)
	acc.counts["trace_bytes"] += float64(g.sink.n)
	if rep.Sched != nil {
		acc.counts["sched_remaps"] += float64(rep.Sched.Remaps)
		acc.counts["sched_op_switches"] += float64(rep.Sched.OpSwitches)
	}
	acc.observe("tcomp_ms_mean", rep.MeanTcompMS())
	acc.observe("tcomp_ms_p99", rep.Tcomp.Quantile(0.99))
	// The sink digest covers the attached writers only, so it is the same
	// whether or not the traced pass added a tracer to cruise.
	sink := uint64(0)
	if v.traffic {
		sink = g.sink.Sum64()
	}
	v.dig = mix(v.dig, uint64(rep.Cycles), uint64(rep.CommandsDelivered), uint64(rep.BlockedCycles),
		uint64(rep.ReactiveEngagements), math.Float64bits(rep.MeanTcompMS()),
		math.Float64bits(rep.DistanceM), math.Float64bits(rep.MinClearance), sink)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
