// Command sovtrace re-analyzes archived run telemetry offline — the
// analysis half of the Fig. 1 vehicle-statistics loop.
//
// Usage:
//
//	sovtrace <trace.jsonl>           re-analyze a JSONL per-cycle trace
//	                                 (produced by `sovsim -trace`)
//	sovtrace -spans <spans.json>     analyze a Chrome trace_event span file
//	                                 (produced by `sovsim -spans`): per-stage
//	                                 latency percentiles and perception
//	                                 critical-path attribution per cycle
//	sovtrace -blackbox <box.jsonl>   triage a flight-recorder dump archive
//	                                 (produced by `sovsim -blackbox`):
//	                                 trigger kind x dump count x first/last
//	                                 virtual time
package main

import (
	"flag"
	"fmt"
	"os"

	"sov/internal/core"
	"sov/internal/obs"
)

func main() {
	spansMode := flag.Bool("spans", false, "treat the input as a Chrome trace_event span file")
	blackboxMode := flag.Bool("blackbox", false, "treat the input as a flight-recorder JSONL dump archive")
	flag.Parse()
	if flag.NArg() != 1 || (*spansMode && *blackboxMode) {
		fmt.Fprintln(os.Stderr, "usage: sovtrace [-spans | -blackbox] <file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	if *blackboxMode {
		sum, err := obs.SummarizeBlackbox(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(sum.Render())
		return
	}

	if *spansMode {
		sum, err := obs.SummarizeSpans(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(sum.Render())
		return
	}

	sum, err := core.SummarizeTrace(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("cycles: %d (%d blocked)\n", sum.Cycles, sum.BlockedCycles)
	if sum.MalformedLines > 0 {
		fmt.Printf("malformed lines skipped: %d\n", sum.MalformedLines)
	}
	fmt.Printf("distance: %.0f m\n", sum.DistanceM)
	fmt.Printf("Tcomp: %s ms\n", sum.TcompMs)
	fmt.Printf("in-flight commands at capture: mean=%.2f max=%.0f\n",
		sum.InFlight.Mean, sum.InFlight.Max)
}
