// The perf gate's own test: scripts/bench.awk (the parser, baseline reader,
// comparator and emitter behind scripts/bench.sh) run over one captured raw
// `go test -bench -count 2` output per wall-clock suite, and over the
// committed BENCH_sched.json. testdata/bench/<suite>.json is the snapshot
// the per-suite scripts this gate replaced wrote from the same <suite>.txt.
package sov

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// benchAwk feeds raw to scripts/bench.awk and returns its stdout and exit
// status; an empty baseline asks for the snapshot.
func benchAwk(t *testing.T, suite, baseline, raw string) (string, int) {
	t.Helper()
	args := []string{"-f", "scripts/bench.awk", "-v", "suite=" + suite}
	if baseline != "" {
		args = append(args, "-v", "baseline="+baseline)
	}
	cmd := exec.Command("awk", args...)
	cmd.Stdin = strings.NewReader(raw)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("awk: %v", err)
	}
	if stderr.Len() > 0 {
		t.Logf("awk stderr: %s", stderr.String())
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// perturb rewrites the value reported in unit on every run of one bench row
// to value*mul + add.
func perturb(t *testing.T, raw, row, unit string, mul, add float64) string {
	t.Helper()
	lines := strings.Split(raw, "\n")
	hit := false
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], row+"-") {
			continue
		}
		for j := 3; j < len(f); j += 2 {
			if f[j] != unit {
				continue
			}
			v, err := strconv.ParseFloat(f[j-1], 64)
			if err != nil {
				t.Fatal(err)
			}
			f[j-1] = strconv.FormatFloat(v*mul+add, 'f', 4, 64)
			hit = true
		}
		lines[i] = strings.Join(f, "\t")
	}
	if !hit {
		t.Fatalf("fixture has no %s column on row %s", unit, row)
	}
	return strings.Join(lines, "\n")
}

func TestBenchGate(t *testing.T) {
	if _, err := exec.LookPath("awk"); err != nil {
		t.Skip("awk not installed")
	}
	prefix := map[string]string{"quant": "BenchmarkQuantSpeedup/", "fleet": "BenchmarkFleetThroughput/", "cloud": "BenchmarkTelemetry"}
	raw := make(map[string]string)
	for suite := range prefix {
		txt, err := os.ReadFile("testdata/bench/" + suite + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		raw[suite] = string(txt)
		want, err := os.ReadFile("testdata/bench/" + suite + ".json")
		if err != nil {
			t.Fatal(err)
		}
		got, code := benchAwk(t, suite, "", raw[suite])
		if code != 0 || got != string(want) {
			t.Errorf("%s snapshot (exit %d) differs from testdata/bench/%s.json:\n%s", suite, code, suite, got)
		}
	}

	// Every case moves one column of one row and checks the fixture against
	// its own snapshot; with mul 1 and add 0 nothing moves.
	cases := []struct {
		suite, id, unit string
		mul, add        float64
		verdict         string
		fail            bool
	}{
		{"quant", "conv/int8", "ns/op", 1, 0, "ok", false},
		{"quant", "conv/int8", "ns/op", 1.05, 0, "ok", false},
		{"quant", "fc/int8", "ns/op", 1.15, 0, "REGRESSION", true},
		{"quant", "isp/int8", "allocs/op", 1, 1, "ok ALLOCS-REGRESSION", true},
		{"quant", "stereo/float32", "ns/op", 2, 0, "(not in baseline; informational)", false},
		{"fleet", "v100/w1", "veh_sec/sec", 0.95, 0, "ok", false},
		{"fleet", "v100/w1", "veh_sec/sec", 0.85, 0, "REGRESSION", true},
		{"fleet", "v1000/w1", "allocs/op", 1, 1, "ok ALLOCS-REGRESSION", true},
		{"fleet", "v1000/w8", "veh_sec/sec", 0.5, 0, "informational (not gated)", false},
		{"fleet", "v1000/w8", "allocs/op", 1, 1, "informational (not gated)", false},
		{"cloud", "Get", "gets/sec", 0.95, 0, "ok", false},
		{"cloud", "Scan", "rows/sec", 0.85, 0, "REGRESSION", true},
		{"cloud", "Ingest", "write_amp", 1.04, 0, "ok", false},
		{"cloud", "Ingest", "write_amp", 1.06, 0, "ok AMP-REGRESSION", true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s/%s*%g+%g", c.suite, c.id, c.unit, c.mul, c.add)
		t.Run(name, func(t *testing.T) {
			moved := perturb(t, raw[c.suite], prefix[c.suite]+c.id, c.unit, c.mul, c.add)
			out, code := benchAwk(t, c.suite, "testdata/bench/"+c.suite+".json", moved)
			if (code != 0) != c.fail || code > 1 {
				t.Errorf("exit status %d, want failure=%v\n%s", code, c.fail, out)
			}
			verdicts := 0
			for _, line := range strings.Split(out, "\n") {
				if !strings.HasPrefix(line, "  ") {
					continue
				}
				verdicts++
				want := "ok"
				switch id := strings.Fields(line)[0]; {
				case id == c.id:
					want = c.verdict
				case strings.HasSuffix(id, "/float32"):
					want = "(not in baseline; informational)"
				case c.suite == "fleet" && !strings.HasSuffix(id, "/w1"):
					want = "informational (not gated)"
				}
				if !strings.HasSuffix(line, "  "+want) {
					t.Errorf("want verdict %q:\n%s", want, line)
				}
			}
			if want := strings.Count(raw[c.suite], "\n"+prefix[c.suite]) / 2; verdicts != want {
				t.Errorf("%d verdict lines, want one per row (%d)\n%s", verdicts, want, out)
			}
		})
	}

	// The sched arm asserts its two invariants: online beats the best static
	// mapping on p99, and steady overhead is at most 2%.
	committed, err := os.ReadFile("BENCH_sched.json")
	if err != nil {
		t.Fatal(err)
	}
	const schedRows = `{"name": "static GPU/FPGA", "p50_ms": 70.4, "p99_ms": 122.7, "remaps": 0},
{"name": "static TX2/TX2", "p50_ms": 659.6, "p99_ms": 1147.3, "remaps": 0},
{"name": "online", "p50_ms": 31.8, "p99_ms": %s, "remaps": 0}
"steady": {"baseline_p50_ms": 70.6, "online_p50_ms": 70.6, "delta_pct": %s},
`
	for _, c := range []struct {
		name, in string
		fail     bool
	}{
		{"committed snapshot", string(committed), false},
		{"online wins", fmt.Sprintf(schedRows, "91.2", "0.000"), false},
		{"online loses to the best static", fmt.Sprintf(schedRows, "122.7", "0.000"), true},
		{"steady overhead over budget", fmt.Sprintf(schedRows, "91.2", "2.100"), true},
		{"rows missing", "{}\n", true},
	} {
		if out, code := benchAwk(t, "sched", "", c.in); (code != 0) != c.fail {
			t.Errorf("sched/%s: exit status %d, want failure=%v\n%s", c.name, code, c.fail, out)
		}
	}

	if out, code := benchAwk(t, "quant", "testdata/bench/quant.json", "PASS\n"); code != 1 {
		t.Errorf("input with no benchmark rows: exit status %d, want 1\n%s", code, out)
	}
	if out, code := benchAwk(t, "quant", "testdata/bench/absent.json", raw["quant"]); code != 2 {
		t.Errorf("unreadable baseline: exit status %d, want 2\n%s", code, out)
	}
}
