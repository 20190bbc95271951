// Command sovbench regenerates every table and figure of the paper's
// evaluation section and prints them as text reports (see EXPERIMENTS.md
// for the paper-vs-measured record).
//
// Usage:
//
//	sovbench [-duration 120s] [-seed 1] [-points 4000] [-only fig10] [-workers N]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//	         [-metrics m.prom] [-spans s.json] [-blackbox b.jsonl]
//
// The telemetry flags attach the unified observability layer to the Fig. 10
// characterization cruise: when any is set, an instrumented characterization
// run executes (replacing the plain one under -only fig10) and its registry
// exposition, span file, and flight-recorder dumps land at the given paths.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sov/internal/core"
	"sov/internal/experiments"
	"sov/internal/obs"
	"sov/internal/parallel"
)

func main() {
	duration := flag.Duration("duration", 120*time.Second, "SoV characterization run length")
	seed := flag.Int64("seed", 1, "seed")
	points := flag.Int("points", 4000, "points per synthetic LiDAR scan")
	only := flag.String("only", "", "run a single experiment: fig2|fig3a|fig3b|table1|table2|fig4a|fig4b|fig6|fig8|fig9|fig10|fig11a|fig11b|fig12|reactive|fusion|extensions|sched|sched-json|csv")
	workers := flag.Int("workers", runtime.NumCPU(), "worker count for parallel kernels (output is identical for any value)")
	quant := flag.Bool("quant", false, "back perception with the int8 fixed-point kernels (DESIGN.md \u00a78)")
	sched := flag.Bool("sched", false, "attach the online heterogeneous scheduler to SoV runs (DESIGN.md \u00a713)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	metricsPath := flag.String("metrics", "", "attach a metrics registry to the characterization cruise and write its exposition here (.json for JSON, else Prometheus text)")
	spansPath := flag.String("spans", "", "attach span tracing to the characterization cruise and write Chrome trace_event JSON here")
	boxPath := flag.String("blackbox", "", "attach the flight recorder to the characterization cruise and write anomaly dumps (JSONL) here")
	flag.Parse()
	parallel.SetWorkers(*workers)
	core.SetQuantDefault(*quant)
	core.SetSchedDefault(*sched)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	telemetry := *metricsPath != "" || *spansPath != "" || *boxPath != ""

	if *only == "" {
		fmt.Print(experiments.All(*seed, *duration, *points))
		if telemetry {
			runInstrumented(*seed, *duration, *metricsPath, *spansPath, *boxPath)
		}
		return
	}
	if telemetry && strings.ToLower(*only) != "fig10" {
		defer runInstrumented(*seed, *duration, *metricsPath, *spansPath, *boxPath)
	}
	switch strings.ToLower(*only) {
	case "fig2":
		fmt.Print(experiments.Fig2LatencyChain())
	case "fig3a":
		fmt.Print(experiments.Fig3aRequirement())
	case "fig3b":
		fmt.Print(experiments.Fig3bDrivingTime())
	case "table1":
		fmt.Print(experiments.Table1Power())
	case "table2":
		fmt.Print(experiments.Table2Cost())
	case "fig4a":
		fmt.Print(experiments.Fig4aReuse(*points))
	case "fig4b":
		fmt.Print(experiments.Fig4bTraffic(*points))
	case "fig6":
		fmt.Print(experiments.Fig6Platforms())
	case "fig8":
		fmt.Print(experiments.Fig8Mappings())
	case "fig9":
		fmt.Print(experiments.Fig9RPR())
	case "fig10":
		if telemetry {
			runInstrumented(*seed, *duration, *metricsPath, *spansPath, *boxPath)
		} else {
			out, _ := experiments.Fig10Characterization(*seed, *duration)
			fmt.Print(out)
		}
	case "fig11a":
		fmt.Print(experiments.Fig11aDepthSync())
	case "fig11b":
		fmt.Print(experiments.Fig11bLocalizationSync())
	case "fig12":
		fmt.Print(experiments.Fig12SyncArchitecture())
	case "reactive":
		fmt.Print(experiments.ReactivePathStudy())
	case "csv":
		fmt.Print(experiments.SeriesCSV())
	case "fusion":
		fmt.Print(experiments.FusionStudy())
	case "extensions":
		fmt.Print(experiments.Extensions())
	case "sched":
		fmt.Print(experiments.SchedDynamic(*seed))
	case "sched-json":
		fmt.Print(experiments.SchedBenchJSON(*seed))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
}

// runInstrumented executes the telemetry-attached characterization cruise
// and writes the requested artifacts.
func runInstrumented(seed int64, duration time.Duration, metricsPath, spansPath, boxPath string) {
	var reg *obs.Registry
	if metricsPath != "" {
		reg = obs.NewRegistry()
	}
	var spans *obs.SpanWriter
	var spansFile *os.File
	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spans:", err)
			return
		}
		spansFile = f
		spans = obs.NewSpanWriter(f)
	}
	var box *obs.FlightRecorder
	var boxFile *os.File
	if boxPath != "" {
		f, err := os.Create(boxPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blackbox:", err)
			return
		}
		boxFile = f
		box = obs.NewFlightRecorder(f, 64, 3)
	}

	out, _ := experiments.Fig10Instrumented(seed, duration, reg, spans, box)
	fmt.Print(out)

	if reg != nil {
		if err := reg.WriteFile(metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
		} else {
			fmt.Printf("metrics: registry snapshot -> %s\n", metricsPath)
		}
	}
	if spans != nil {
		n, err := spans.Close()
		if cerr := spansFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "spans:", err)
		} else {
			fmt.Printf("spans: %d events -> %s\n", n, spansPath)
		}
	}
	if box != nil {
		n, err := box.Close()
		if cerr := boxFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "blackbox:", err)
		} else {
			fmt.Printf("blackbox: %d dumps -> %s\n", n, boxPath)
		}
	}
}
