package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fillRegistry builds a registry with every instrument kind in both classes,
// registered in the given order, holding fixed values. Two registries built
// with different orders must render identical bytes.
func fillRegistry(reverse bool) *Registry {
	r := NewRegistry()
	build := []func(){
		func() { r.Counter("sov_cycles_total", "control cycles captured", ClassVirtual).Add(300) },
		func() { r.Gauge("sov_distance_m", "odometer distance covered", ClassVirtual).Set(168.125) },
		func() {
			h := r.Histogram("sov_tcomp_ms", "per-cycle computing latency (ms)", ClassVirtual, 0, 400, 4)
			for _, v := range []float64{150, 160, 170, 250, 399.9, 450 /* clamped */, -5 /* clamped */} {
				h.Observe(v)
			}
		},
		func() { r.Counter("sov_pipe_stalls_total", "queue-full stalls", ClassHost).Add(2) },
		func() { r.Gauge("sov_pipe_busy_ms", "stage busy wall-clock", ClassHost).Set(12.5) },
	}
	if reverse {
		for i := len(build) - 1; i >= 0; i-- {
			build[i]()
		}
	} else {
		for _, f := range build {
			f()
		}
	}
	return r
}

// TestTextExpositionGolden pins the exposition bytes: sections ordered
// virtual-then-host, names alphabetical within a section, HELP/TYPE
// comments, cumulative histogram buckets with a +Inf terminal.
func TestTextExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fillRegistry(false).WriteText(&buf, true); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics_golden.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestWriteFilePicksFormatBySuffix: a .json path holds exactly WriteJSON's
// bytes, any other path WriteText's, host section included; a path that
// cannot be created is an error.
func TestWriteFilePicksFormatBySuffix(t *testing.T) {
	r := fillRegistry(false)
	var text, js bytes.Buffer
	if err := r.WriteText(&text, true); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&js, true); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, want := range map[string][]byte{"m.prom": text.Bytes(), "m.json": js.Bytes()} {
		path := filepath.Join(dir, name)
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n%s\nwant:\n%s", name, got, want)
		}
	}
	if err := r.WriteFile(filepath.Join(dir, "absent", "m.prom")); err == nil {
		t.Error("WriteFile into a missing directory returned no error")
	}
}

// TestTextExpositionOrderIndependent: the bytes depend only on the metric
// values, never on registration order.
func TestTextExpositionOrderIndependent(t *testing.T) {
	var a, b bytes.Buffer
	if err := fillRegistry(false).WriteText(&a, true); err != nil {
		t.Fatal(err)
	}
	if err := fillRegistry(true).WriteText(&b, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("exposition bytes depend on registration order")
	}
}

// TestHostSectionExcluded: includeHost=false must drop every host-class
// metric and the host section header — the determinism-contract view.
func TestHostSectionExcluded(t *testing.T) {
	var buf bytes.Buffer
	if err := fillRegistry(false).WriteText(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if bytes.Contains(buf.Bytes(), []byte("sov_pipe")) {
		t.Fatalf("host metrics leaked into virtual-only exposition:\n%s", out)
	}
	if bytes.Contains(buf.Bytes(), []byte(headerHost)) {
		t.Fatal("host section header present in virtual-only exposition")
	}
}

// TestHistogramClampsAndCounts: out-of-range observations land in the edge
// bins; count and sum track every observation.
func TestHistogramClampsAndCounts(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "test", ClassVirtual, 0, 10, 2)
	for _, v := range []float64{-1, 0, 4.9, 5, 9.9, 10, 11} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if want := -1 + 0 + 4.9 + 5 + 9.9 + 10 + 11; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	counts, _, _ := h.snapshot()
	if counts[0] != 3 || counts[1] != 4 {
		t.Fatalf("bins = %v, want [3 4]", counts)
	}
}

// TestWriteJSONValidAndInfSafe: the JSON snapshot must parse, preserve the
// (class, name) order, and map non-finite gauges (an untouched min-clearance
// gauge is +Inf) to null instead of emitting invalid JSON.
func TestWriteJSONValidAndInfSafe(t *testing.T) {
	r := fillRegistry(false)
	r.Gauge("sov_min_clearance_m", "closest approach", ClassVirtual).Set(math.Inf(1))
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	var snap []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(snap) != 6 {
		t.Fatalf("got %d metrics, want 6", len(snap))
	}
	for _, m := range snap {
		if m["name"] == "sov_min_clearance_m" {
			if v, ok := m["value"]; !ok || v != nil {
				t.Fatalf("+Inf gauge rendered as %v, want null", v)
			}
		}
	}
	// Virtual section leads: the first entry must be virtual-class.
	if snap[0]["class"] != "virtual" || snap[len(snap)-1]["class"] != "host" {
		t.Fatalf("class ordering broken: first=%v last=%v", snap[0]["class"], snap[len(snap)-1]["class"])
	}
}

// TestHistogramQuantiles: the fixed-bin quantile estimator interpolates
// inside the covering bin, clamps to the range, returns NaN when empty,
// and shows up in both expositions.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "test", ClassVirtual, 0, 100, 10)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	// 100 observations, uniform one per unit in [0, 100): bin i holds 10.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0.50, 50}, // rank 50 = end of bin 4: 40 + 10*(50-40)/10
		{0.95, 95},
		{0.99, 99},
		{1.00, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A spiked distribution: everything in one bin interpolates within it.
	r2 := NewRegistry()
	h2 := r2.Histogram("spike", "test", ClassVirtual, 0, 10, 10)
	for i := 0; i < 4; i++ {
		h2.Observe(3.5)
	}
	if got := h2.Quantile(0.5); got < 3 || got > 4 {
		t.Fatalf("spike p50 = %v, want within bin [3,4)", got)
	}

	var text bytes.Buffer
	if err := r.WriteText(&text, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`q{quantile="0.5"} 50`, `q{quantile="0.95"} 95`, `q{quantile="0.99"} 99`} {
		if !bytes.Contains(text.Bytes(), []byte(want)) {
			t.Fatalf("text exposition missing %q:\n%s", want, text.String())
		}
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js, false); err != nil {
		t.Fatal(err)
	}
	var snap []map[string]any
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if p95, ok := snap[0]["p95"].(float64); !ok || math.Abs(p95-95) > 1e-9 {
		t.Fatalf("json p95 = %v", snap[0]["p95"])
	}
	// Empty histograms render null percentiles, not NaN (invalid JSON).
	r3 := NewRegistry()
	r3.Histogram("empty", "test", ClassVirtual, 0, 1, 2)
	var js3 bytes.Buffer
	if err := r3.WriteJSON(&js3, false); err != nil {
		t.Fatal(err)
	}
	var snap3 []map[string]any
	if err := json.Unmarshal(js3.Bytes(), &snap3); err != nil {
		t.Fatalf("empty-histogram snapshot invalid: %v\n%s", err, js3.String())
	}
	if v, ok := snap3[0]["p50"]; !ok || v != nil {
		t.Fatalf("empty p50 = %v, want null", v)
	}
}

// TestRegistryRejectsBadRegistrations: duplicate and malformed names panic
// at setup time, not silently collide at exposition time.
func TestRegistryRejectsBadRegistrations(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("dup", "first", ClassVirtual)
	expectPanic("duplicate name", func() { r.Gauge("dup", "second", ClassVirtual) })
	expectPanic("uppercase name", func() { r.Counter("BadName", "x", ClassVirtual) })
	expectPanic("empty name", func() { r.Counter("", "x", ClassVirtual) })
	expectPanic("zero-bin histogram", func() { r.Histogram("h", "x", ClassVirtual, 0, 1, 0) })
	expectPanic("inverted range", func() { r.Histogram("h2", "x", ClassVirtual, 5, 1, 4) })
}
