// Command benchmark is the repository's one whole-stack benchmark: four
// closed-loop workloads (cruise, traffic, fleet, telemetry), a small set of
// end-to-end metrics measured with tracing off, and per-layer metrics from a
// separate traced pass. See README.md beside this file and BENCHMARK.json
// at the repository root.
//
// Usage:
//
//	go run ./benchmark --workload cruise --seed 1 --seconds 20 --trace 0
//	go run ./benchmark [-seed 1] [-seconds 20] [-out DIR]   # all workloads
//	go run ./benchmark -smoke                               # 1/50 scale, every check on
//	go run ./benchmark -check a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"sov/internal/parallel"
)

var workloadNames = []string{"cruise", "traffic", "fleet", "telemetry"}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "", "run one workload (cruise, traffic, fleet, telemetry) and print one JSON result line; empty runs all four")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "how long each workload measures")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "directory for result.json and trace-<workload>.json (all-workloads mode)")
	smoke := fs.Bool("smoke", false, "run every workload at 1/50 scale for half a second per pass, with every check on")
	check := fs.Bool("check", false, "compare two result files: -check a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -check a.json b.json")
			return 2
		}
		return runCheck(fs.Arg(0), fs.Arg(1))
	}

	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
	defer parallel.SetWorkers(parallel.SetWorkers(w))

	tmp, err := os.MkdirTemp(".", ".benchmark-work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	p := params{seed: *seed, scale: 1, workers: w, tmpRoot: tmp}
	if *smoke {
		p.scale = 1.0 / 50
		*seconds = 0.5
	}
	if *workloadFlag != "" {
		return runOne(p, *workloadFlag, *seconds, *trace == 1)
	}
	return runSuite(p, *seconds, *out)
}

// newWorkload builds the named workload.
func newWorkload(p params, name string) (workload, error) {
	switch name {
	case "cruise":
		return newVehicleLoad(p, false), nil
	case "traffic":
		return newVehicleLoad(p, true), nil
	case "fleet":
		return newFleetLoad(p), nil
	case "telemetry":
		return newStoreLoad(p), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// resultLine is the single-workload mode's last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload and prints its metrics, the JSON line last.
func runOne(p params, name string, seconds float64, traced bool) int {
	w, err := newWorkload(p, name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer w.tearDown()
	var res *workloadResult
	if traced {
		res, _, err = tracePass(p, w, seconds)
	} else {
		res, err = measure(w, seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	printMetrics(os.Stdout, res, metrics)
	line := resultLine{Correct: res.Correct, Attempted: res.Ops, Failed: res.OpsFailed, Metrics: map[string]lineValue{}}
	for k, v := range metrics {
		line.Metrics[k] = lineValue{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string           `json:"name"`
	Config    any              `json:"config"`
	Ops       int64            `json:"ops"`
	OpsFailed int64            `json:"ops_failed"`
	Correct   bool             `json:"correct"`
	Failures  []string         `json:"failures,omitempty"`
	Slices    int              `json:"slices"`
	HostSpeed float64          `json:"host_speed"` // median reference-kernel speed over the measured slices
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// measure is the untraced pass of one workload: set-up, then slices until
// the time budget is spent.
func measure(w workload, seconds float64) (*workloadResult, error) {
	r, err := newRunner(w, seconds)
	if err != nil {
		return nil, err
	}
	for !r.done() {
		if err := r.step(); err != nil {
			return nil, err
		}
	}
	return r.result(), nil
}

// result closes a measured pass into a workloadResult.
func (r *runner) result() *workloadResult {
	return &workloadResult{
		Name:      r.w.name(),
		Config:    r.w.config(),
		Ops:       r.acc.ops,
		OpsFailed: r.acc.failed,
		Correct:   r.acc.failed == 0 && r.acc.ops > 0,
		Failures:  r.acc.failureNames(),
		Slices:    len(r.acc.slices),
		HostSpeed: median(r.speeds),
		EndToEnd:  r.endToEnd(),
	}
}

// printMetrics writes one "workload metric value unit n=…" row per metric,
// sorted by name, then the operation counts and any failed checks by name.
func printMetrics(f io.Writer, res *workloadResult, metrics map[string]value) {
	for _, k := range sortedKeys(metrics) {
		v := metrics[k]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  n=%d", v.N)
		}
		if v.Weak {
			n += fmt.Sprintf("  (fewer than %d samples beyond)", minBeyond)
		}
		fmt.Fprintf(f, "%-10s %-36s %16.4f %-6s%s\n", res.Name, k, v.Value, v.Unit, n)
	}
	fmt.Fprintf(f, "%-10s ops=%d ops_failed=%d slices=%d host_speed=%.3f\n", res.Name, res.Ops, res.OpsFailed, res.Slices, res.HostSpeed)
	for _, name := range res.Failures {
		fmt.Fprintf(f, "%-10s FAILED CHECK %s\n", res.Name, name)
	}
}
