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
	only := flag.String("only", "", "run a single experiment: "+strings.Join(names(), "|"))
	workers := flag.Int("workers", runtime.NumCPU(), "worker count for parallel kernels (output is identical for any value)")
	quant := flag.Bool("quant", false, "back perception with the int8 fixed-point kernels (DESIGN.md \u00a78)")
	sched := flag.Bool("sched", false, "attach the online heterogeneous scheduler to SoV runs (DESIGN.md \u00a713)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()
	base := core.DefaultConfig()
	if period := time.Duration(float64(time.Second) / base.ControlRate); *duration < period {
		fail(fmt.Errorf("-duration %v: shorter than one %v control period", *duration, period))
	}
	if *points <= 0 {
		fail(fmt.Errorf("-points %d: need at least one point per scan", *points))
	}
	run := experiments.All
	if *only != "" {
		s, ok := experiments.Lookup(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
			os.Exit(2)
		}
		run = s.Run
	}
	parallel.SetWorkers(*workers)
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

	fmt.Print(run(base, *seed, *duration, *points))
}

// names lists the sections -only accepts, in the full pass's order.
func names() []string {
	var out []string
	for _, s := range experiments.Sections {
		out = append(out, s.Name)
	}
	return out
}

// fail reports a non-physical flag value and exits with flag's usage-error
// status.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "sovbench:", err)
	os.Exit(2)
}
