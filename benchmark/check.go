package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runCheck compares result file b against baseline a: end-to-end metrics
// under their bounds, virtual-time metrics and counts exactly. It prints one
// row per workload × metric with both values and their ratio (base: a) and
// returns non-zero when a metric got worse by more than its bound or an
// exact metric differs.
func runCheck(pathA, pathB string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResult(pathB); err == nil {
			return compare(os.Stdout, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark -check:", err)
	return 2
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict classifies one metric of b against a. medianErrPct is how far the
// reported median of either run may be off: the interquartile range of its
// slices over the root of their number.
func verdict(d metricDef, endToEnd bool, a, b, medianErrPct float64) string {
	switch d.Class {
	case "qualifier":
		return ""
	case "virtual", "count":
		if a == b {
			return "exact"
		}
		return "MISMATCH"
	}
	if !endToEnd {
		return "" // host-time layer metrics explain a change; they do not gate it
	}
	worse, better := b > a*(1+d.Bound), b < a*(1-d.Bound)
	if d.Better == "higher" {
		worse, better = b < a*(1-d.Bound), b > a*(1+d.Bound)
	}
	switch {
	case worse:
		return "WORSE"
	case medianErrPct/100 > d.Bound:
		// The run's own slices leave its median uncertain by more than the
		// bound, so "within the bound" proves nothing either way.
		return "unresolved"
	case better:
		return "better"
	}
	return "ok"
}

func compare(out io.Writer, a, b *resultFile) int {
	if a.Host.Seed != b.Host.Seed || a.Host.Scale != b.Host.Scale {
		fmt.Fprintf(out, "result files differ in seed or scale (%d/%g vs %d/%g): counts and virtual metrics cannot be compared\n",
			a.Host.Seed, a.Host.Scale, b.Host.Seed, b.Host.Scale)
		return 2
	}
	fmt.Fprintf(out, "a: %s, %d CPUs, W %d, commit %s\nb: %s, %d CPUs, W %d, commit %s\n",
		a.Host.CPUModel, a.Host.NumCPU, a.Host.Workers, a.Host.GitCommit,
		b.Host.CPUModel, b.Host.NumCPU, b.Host.Workers, b.Host.GitCommit)
	fmt.Fprintf(out, "%-10s %-34s %16s %16s %9s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict (bound)")
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	bad := 0
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(out, "%-10s missing from b\n", wa.Name)
			bad++
			continue
		}
		medianErr := 0.0
		for _, w := range []*workloadResult{wa, wb} {
			if w.Slices > 0 {
				medianErr = math.Max(medianErr, w.PerLayer["bench.slice_iqr_pct"].Value/math.Sqrt(float64(w.Slices)))
			}
		}
		row := func(d metricDef, endToEnd bool, va, vb value) {
			ratio := "-"
			if va.Value != 0 {
				ratio = fmt.Sprintf("%.4f", vb.Value/va.Value)
			}
			v := verdict(d, endToEnd, va.Value, vb.Value, medianErr)
			if v == "MISMATCH" || v == "WORSE" {
				bad++
			}
			if endToEnd {
				v = fmt.Sprintf("%s (%.0f%%)", v, 100*d.Bound)
			}
			fmt.Fprintf(out, "%-10s %-34s %16.4f %16.4f %9s  %s\n", wa.Name, d.Name, va.Value, vb.Value, ratio, v)
		}
		for _, d := range endToEndDefs {
			row(d, true, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name])
		}
		for _, d := range perLayerDefs {
			row(d, false, wa.PerLayer[d.Name], wb.PerLayer[d.Name])
		}
		if wa.OpsFailed != 0 || wb.OpsFailed != 0 {
			fmt.Fprintf(out, "%-10s ops_failed a=%d b=%d\n", wa.Name, wa.OpsFailed, wb.OpsFailed)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "FAILED: %d metrics worse than their bound, mismatched or failed\n", bad)
		return 1
	}
	return 0
}
