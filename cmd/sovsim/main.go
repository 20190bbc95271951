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
	"flag"
	"fmt"
	"os"
	"time"

	"sov/internal/core"
	"sov/internal/obs"
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
	sched := flag.Bool("sched", false, "attach the online heterogeneous scheduler (DESIGN.md §13)")
	schedMapping := flag.String("sched-mapping", "", "scheduler initial SU/Loc mapping, e.g. GPU/FPGA")
	schedStatic := flag.Bool("sched-static", false, "pin the scheduler to its initial mapping (baseline)")
	cameras := flag.Int("cameras", 1, "cameras feeding scene understanding per cycle")
	ambient := flag.Float64("ambient", 25, "enclosure ambient temperature (C) for the scheduler's thermal model")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Quant = *quant
	cfg.Sched = *sched
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
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		defer f.Close()
		tracer = core.NewTracer(f)
		s.AttachTracer(tracer)
	}
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry()
		s.AttachMetrics(reg)
	}
	var spans *obs.SpanWriter
	if *spansPath != "" {
		f, err := os.Create(*spansPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spans:", err)
			os.Exit(1)
		}
		defer f.Close()
		spans = obs.NewSpanWriter(f)
		s.AttachSpans(spans)
	}
	var box *obs.FlightRecorder
	if *boxPath != "" {
		f, err := os.Create(*boxPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blackbox:", err)
			os.Exit(1)
		}
		defer f.Close()
		// A 64-cycle ring; three blocked cycles in a row is already an
		// anomaly at 10 Hz.
		box = obs.NewFlightRecorder(f, 64, 3)
		s.AttachFlightRecorder(box)
	}
	rep := s.Run(*duration)
	if tracer != nil {
		if n, err := tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
		} else {
			fmt.Printf("trace: %d records -> %s\n", n, *tracePath)
		}
	}
	if reg != nil {
		if err := reg.WriteFile(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
		} else {
			fmt.Printf("metrics: registry snapshot -> %s\n", *metricsPath)
		}
	}
	if spans != nil {
		if n, err := spans.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "spans:", err)
		} else {
			fmt.Printf("spans: %d events -> %s\n", n, *spansPath)
		}
	}
	if box != nil {
		if n, err := box.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "blackbox:", err)
		} else {
			fmt.Printf("blackbox: %d dumps -> %s\n", n, *boxPath)
		}
	}
	fmt.Printf("SoV cruise: %v simulated, seed %d\n", *duration, *seed)
	fmt.Print(rep.Render())
	if rep.Collisions > 0 {
		fmt.Fprintln(os.Stderr, "warning: collisions occurred")
		os.Exit(1)
	}
}
