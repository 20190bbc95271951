// Command sovsim runs the Systems-on-a-Vehicle simulation on the cruise
// scenario and prints the Fig. 10-style latency characterization.
//
// Usage:
//
//	sovsim [-duration 120s] [-seed 1] [-no-fpga] [-no-sync] [-no-reactive]
//	       [-no-radar-tracking] [-em-planner] [-quant]
//	       [-sched] [-sched-mapping GPU/FPGA] [-sched-static] [-cameras N]
//	       [-ambient 25] [-trace t.jsonl] [-metrics m.prom] [-spans s.json]
//	       [-blackbox b.jsonl]
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"time"

	"sov/internal/core"
	"sov/internal/obs"
	"sov/internal/sched"
	"sov/internal/vehicle"
)

func main() {
	duration := flag.Duration("duration", 120*time.Second, "simulated driving time")
	seed := flag.Int64("seed", 1, "simulation seed")
	noFPGA := flag.Bool("no-fpga", false, "keep localization on the GPU (Fig. 8 ablation)")
	noSync := flag.Bool("no-sync", false, "disable the hardware synchronizer")
	noReactive := flag.Bool("no-reactive", false, "disarm the reactive safety path")
	noRadarTrk := flag.Bool("no-radar-tracking", false, "use KCF visual tracking instead of radar")
	emPlanner := flag.Bool("em-planner", false, "use the EM-style DP+QP planner instead of MPC")
	shuttle := flag.Bool("shuttle", false, "run the 8-seater shuttle instead of the 2-seater pod")
	tracePath := flag.String("trace", "", "write a JSONL per-cycle trace to this path")
	metricsPath := flag.String("metrics", "", "write the metrics registry exposition to this path (.json for the JSON snapshot, else Prometheus text)")
	spansPath := flag.String("spans", "", "write per-cycle stage spans (Chrome trace_event JSON, Perfetto-loadable) to this path")
	boxPath := flag.String("blackbox", "", "write flight-recorder anomaly dumps (JSONL) to this path")
	quant := flag.Bool("quant", false, "back perception with the int8 fixed-point kernels (DESIGN.md §8)")
	schedOn := flag.Bool("sched", false, "attach the online heterogeneous scheduler (DESIGN.md §13)")
	schedMapping := flag.String("sched-mapping", "", "scheduler initial SU/Loc mapping, e.g. GPU/FPGA")
	schedStatic := flag.Bool("sched-static", false, "pin the scheduler to its initial mapping (baseline)")
	cameras := flag.Int("cameras", 1, "cameras feeding scene understanding per cycle")
	ambient := flag.Float64("ambient", 25, "enclosure ambient temperature (C) for the scheduler's thermal model")
	flag.Parse()
	if *duration <= 0 {
		fail(fmt.Errorf("-duration %v: must be positive", *duration))
	}
	if *cameras < 1 {
		fail(fmt.Errorf("-cameras %d: need at least one camera", *cameras))
	}
	if !(*ambient >= absoluteZeroC) {
		fail(fmt.Errorf("-ambient %g: below absolute zero (%g C)", *ambient, absoluteZeroC))
	}
	if *schedMapping != "" {
		sc := sched.DefaultConfig()
		m, err := sched.ParseMapping(*schedMapping)
		if err == nil {
			sc.Mapping = m
			_, err = sched.New(sc)
		}
		if err != nil {
			fail(err)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Quant = *quant
	cfg.Sched = *schedOn
	cfg.SchedMapping = *schedMapping
	cfg.SchedStatic = *schedStatic
	cfg.Cameras = *cameras
	cfg.AmbientC = *ambient
	cfg.Seed = *seed
	if *shuttle {
		cfg.Vehicle = vehicle.ShuttleParams()
	}
	cfg.FPGAOffload = !*noFPGA
	cfg.HardwareSync = !*noSync
	cfg.ReactivePath = !*noReactive
	cfg.RadarTracking = !*noRadarTrk
	cfg.EMPlanner = *emPlanner

	w := core.CruiseScenario(*seed)
	s := core.New(cfg, w)
	var tracer *core.Tracer
	var traceF, spansF, boxF *os.File
	if *tracePath != "" {
		traceF = create("trace", *tracePath)
		tracer = core.NewTracer(traceF)
		s.AttachTracer(tracer)
	}
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry()
		s.AttachMetrics(reg)
	}
	var spans *obs.SpanWriter
	if *spansPath != "" {
		spansF = create("spans", *spansPath)
		spans = obs.NewSpanWriter(spansF)
		s.AttachSpans(spans)
	}
	var box *obs.FlightRecorder
	if *boxPath != "" {
		boxF = create("blackbox", *boxPath)
		// A 64-cycle ring; three blocked cycles in a row is already an
		// anomaly at 10 Hz.
		box = obs.NewFlightRecorder(boxF, 64, 3)
		s.AttachFlightRecorder(box)
	}
	rep := s.Run(*duration)

	// Every artifact asked for is written in full or the run fails: a write
	// or close error exits 1, after the other artifacts and the report.
	failed := false
	written := func(what string, err error, format string, args ...any) {
		if err != nil {
			fmt.Fprintln(os.Stderr, what+":", err)
			failed = true
			return
		}
		fmt.Printf(format, args...)
	}
	if tracer != nil {
		n, err := tracer.Close()
		written("trace", cmp.Or(err, traceF.Close()), "trace: %d records -> %s\n", n, *tracePath)
	}
	if reg != nil {
		written("metrics", reg.WriteFile(*metricsPath), "metrics: registry snapshot -> %s\n", *metricsPath)
	}
	if spans != nil {
		n, err := spans.Close()
		written("spans", cmp.Or(err, spansF.Close()), "spans: %d events -> %s\n", n, *spansPath)
	}
	if box != nil {
		n, err := box.Close()
		written("blackbox", cmp.Or(err, boxF.Close()), "blackbox: %d dumps -> %s\n", n, *boxPath)
	}
	fmt.Printf("SoV cruise: %v simulated, seed %d\n", *duration, *seed)
	fmt.Print(rep.Render())
	if rep.Collisions > 0 {
		fmt.Fprintln(os.Stderr, "warning: collisions occurred")
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// create opens an artifact file; one that cannot be created fails the run
// before it starts.
func create(what, path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, what+":", err)
		os.Exit(1)
	}
	return f
}

// absoluteZeroC is the coldest physical ambient.
const absoluteZeroC = -273.15

// fail reports a non-physical flag value and exits with flag's usage-error
// status.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "sovsim:", err)
	os.Exit(2)
}
