// Command sovtrace re-analyzes archived run telemetry offline — the
// analysis half of the Fig. 1 vehicle-statistics loop.
//
// Usage:
//
//	sovtrace <file>
//
// The input says what it is:
//
//   - a first non-blank byte '[' is a Chrome trace_event span file
//     (`sovsim -spans`): per-stage latency percentiles and perception
//     critical-path attribution per cycle;
//   - a first non-blank line that is a JSON object with a "trigger" key is
//     a flight-recorder dump archive (`sovsim -blackbox`): trigger kind x
//     dump count x first/last virtual time;
//   - a file with no non-blank byte is an archive too, and prints "no
//     flight-recorder dumps": `sovsim -blackbox` writes one whenever no
//     trigger fired, while a trace always holds a cycle;
//   - anything else is a JSONL per-cycle trace (`sovsim -trace`).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sov/internal/core"
	"sov/internal/obs"
)

func main() {
	flag.Usage = func() { fmt.Fprintln(os.Stderr, "usage: sovtrace <file>") }
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	b, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out, err := summarize(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// summarize renders what b holds: a span file, a flight-recorder archive
// or a per-cycle trace.
func summarize(b []byte) (string, error) {
	rest := bytes.TrimLeft(b, " \t\r\n")
	if len(rest) > 0 && rest[0] == '[' {
		sum, err := obs.SummarizeSpans(bytes.NewReader(b))
		if err != nil {
			return "", err
		}
		return sum.Render(), nil
	}
	first, _, _ := bytes.Cut(rest, []byte("\n"))
	var keys map[string]json.RawMessage
	if len(rest) == 0 || json.Unmarshal(first, &keys) == nil && keys["trigger"] != nil {
		sum, err := obs.SummarizeBlackbox(bytes.NewReader(b))
		if err != nil {
			return "", err
		}
		return sum.Render(), nil
	}

	sum, err := core.SummarizeTrace(bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("cycles: %d (%d blocked)\n", sum.Cycles, sum.BlockedCycles)
	if sum.MalformedLines > 0 {
		out += fmt.Sprintf("malformed lines skipped: %d\n", sum.MalformedLines)
	}
	out += fmt.Sprintf("distance: %.0f m\n", sum.DistanceM)
	out += fmt.Sprintf("Tcomp: %s ms\n", sum.TcompMs)
	out += fmt.Sprintf("in-flight commands at capture: mean=%.2f max=%.0f\n",
		sum.InFlight.Mean, sum.InFlight.Max)
	return out, nil
}
