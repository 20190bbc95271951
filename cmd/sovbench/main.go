// Command sovbench regenerates every table and figure of the paper's
// evaluation section and prints them as text reports (see EXPERIMENTS.md
// for the paper-vs-measured record).
//
// Usage:
//
//	sovbench [-duration 120s] [-seed 1] [-points 4000] [-only fig10] [-workers N]
//	         [-quant] [-sched] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -quant and -sched set the base core.Config every SoV run of the suite
// starts from. The Fig. 10 cruise with telemetry attached is sovsim's job:
// sovsim -seed S -duration D -metrics m.prom -spans s.json -blackbox b.jsonl.
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
	flag.Parse()
	parallel.SetWorkers(*workers)
	base := core.DefaultConfig()
	base.Quant, base.Sched = *quant, *sched

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

	if *only == "" {
		fmt.Print(experiments.All(base, *seed, *duration, *points))
		return
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
		out, _ := experiments.Fig10Characterization(base, *seed, *duration)
		fmt.Print(out)
	case "fig11a":
		fmt.Print(experiments.Fig11aDepthSync())
	case "fig11b":
		fmt.Print(experiments.Fig11bLocalizationSync())
	case "fig12":
		fmt.Print(experiments.Fig12SyncArchitecture())
	case "reactive":
		fmt.Print(experiments.ReactivePathStudy(base))
	case "csv":
		fmt.Print(experiments.SeriesCSV())
	case "fusion":
		fmt.Print(experiments.FusionStudy())
	case "extensions":
		fmt.Print(experiments.Extensions())
	case "sched":
		fmt.Print(experiments.SchedDynamic(base, *seed))
	case "sched-json":
		fmt.Print(experiments.SchedBenchJSON(base, *seed))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
