package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sov/internal/core"
	"sov/internal/parallel"
	"sov/internal/telemetry"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	cases := []struct {
		n         int
		q         float64
		want      float64
		supported bool
	}{
		{101, 0.50, 50, true},
		{101, 0.90, 90, true},    // 10 beyond: 91..100
		{100, 0.90, 89.1, false}, // interpolates between 89 and 90; only 9 beyond 90
		{101, 0.99, 99, false},
		{1001, 0.99, 990, true},
		{21, 0.50, 10, true},
		{20, 0.50, 9.5, false},
	}
	for _, c := range cases {
		got, ok := quantile(mk(c.n), c.q)
		if math.Abs(got-c.want) > 1e-9 || ok != c.supported {
			t.Errorf("quantile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.supported)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("empty sample reported as supported")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestIQRShareMatchesPythonExclusiveQuartiles(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %g, want %g", got, want)
	}
	if got := iqrShare([]float64{3, 4, 5}); got != 0 {
		t.Errorf("iqrShare of three values = %g, want 0", got)
	}
}

func TestSpanSelfTimeExcludesChildren(t *testing.T) {
	r := newRecorder("t")
	r.spans = []span{
		{ID: 0, Parent: -1, Name: "slice", StartNs: 0, EndNs: 100e6},
		{ID: 1, Parent: 0, Name: "call", StartNs: 10e6, EndNs: 40e6},
		{ID: 2, Parent: 0, Name: "call", StartNs: 50e6, EndNs: 70e6},
	}
	got := map[string]spanSummary{}
	for _, s := range r.summarize() {
		got[s.Name] = s
	}
	if s := got["slice"]; s.TotalMs != 100 || s.SelfMs != 50 || s.Count != 1 {
		t.Errorf("slice summary = %+v, want total 100 self 50 count 1", s)
	}
	if s := got["call"]; s.TotalMs != 50 || s.SelfMs != 50 || s.Count != 2 {
		t.Errorf("call summary = %+v, want total 50 self 50 count 2", s)
	}
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	render := func(seed int64, slice int) []byte {
		g := newGenerator(seed, slice, 40)
		var out []byte
		var batch []telemetry.Event
		var arena []byte
		for e := 1; e <= 30; e++ {
			batch, arena = g.batch(batch[:0], arena[:0], e)
			for _, ev := range batch {
				out = telemetry.AppendRowJSON(out, ev)
			}
		}
		return out
	}
	a, b := render(7, 0), render(7, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and slice produced different events")
	}
	if bytes.Equal(a, render(8, 0)) || bytes.Equal(a, render(7, 1)) {
		t.Fatal("different seed or slice produced identical events")
	}
	g := newGenerator(7, 0, 40)
	brakes := 0
	for v := 0; v < 40; v++ {
		for e := 1; e <= 200; e++ {
			if n := len(g.appendPayload(nil, v, e)); n < 40 || n > 80 {
				t.Fatalf("payload of (%d,%d) is %d bytes, want 40..80", v, e, n)
			}
			if g.brake(v, e) {
				brakes++
			}
		}
	}
	if want := 8000.0 / 17; float64(brakes) < 0.8*want || float64(brakes) > 1.2*want {
		t.Errorf("%d brake events in 8000 draws, want about %.0f", brakes, want)
	}
}

// The generator predicts the sequence number the store assigns; a wrong
// prediction would make every Get in the telemetry workload miss.
func TestGeneratorKeysMatchTheStore(t *testing.T) {
	st, err := telemetry.Open(t.TempDir(), telemetry.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := newGenerator(3, 0, 40)
	var batch []telemetry.Event
	var arena []byte
	for e := 1; e <= 25; e++ {
		batch, arena = g.batch(batch[:0], arena[:0], e)
		if err := st.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	for _, ve := range [][2]int{{0, 1}, {39, 1}, {17, 13}, {39, 25}} {
		got, ok, err := st.Get(g.snapshotKey(ve[0], ve[1]))
		if err != nil || !ok {
			t.Fatalf("Get(%v): ok=%v err=%v", ve, ok, err)
		}
		if want := g.appendPayload(nil, ve[0], ve[1]); !bytes.Equal(got, want) {
			t.Errorf("Get(%v) = %s, want %s", ve, got, want)
		}
	}
	if n, err := st.Count(telemetry.Query{}); err != nil || n != g.events {
		t.Errorf("Count = %d, %v; generator ingested %d", n, err, g.events)
	}
}

// The vehicle workloads drive a segment one control period at a time; that
// must be the same simulation as one Run call.
func TestAdvancePerPeriodEqualsRun(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, traffic := range []bool{false, true} {
		v := newVehicleLoad(params{seed: 5, scale: 0.1}, traffic)
		total := time.Duration(v.periods) * v.period

		whole := v.build(0, nil, nil, false)
		want := whole.sov.Run(total)

		stepped := v.build(0, nil, nil, false)
		stepped.sov.Start()
		for p := 1; p <= v.periods; p++ {
			stepped.sov.AdvanceTo(time.Duration(p) * v.period)
		}
		got := stepped.sov.Finish(total)

		if got.Cycles != want.Cycles || got.CommandsDelivered != want.CommandsDelivered ||
			got.MeanTcompMS() != want.MeanTcompMS() || got.DistanceM != want.DistanceM {
			t.Errorf("%s: stepped report (cycles %d, delivered %d, tcomp %v, dist %v) != Run report (%d, %d, %v, %v)",
				v.name(), got.Cycles, got.CommandsDelivered, got.MeanTcompMS(), got.DistanceM,
				want.Cycles, want.CommandsDelivered, want.MeanTcompMS(), want.DistanceM)
		}
		if whole.sink.Sum64() != stepped.sink.Sum64() {
			t.Errorf("%s: stepped run wrote a different trace than Run", v.name())
		}
	}
}

func TestSegmentConfigIgnoresProcessDefaults(t *testing.T) {
	core.SetPipelineDefault(true)
	core.SetQuantDefault(true)
	core.SetSchedDefault(true)
	defer core.SetPipelineDefault(false)
	defer core.SetQuantDefault(false)
	defer core.SetSchedDefault(false)
	cfg := newVehicleLoad(params{seed: 1, scale: 1}, false).segmentConfig(0)
	if cfg.Pipeline || cfg.Quant || cfg.Sched {
		t.Errorf("cruise config picked up process defaults: pipeline=%v quant=%v sched=%v", cfg.Pipeline, cfg.Quant, cfg.Sched)
	}
	fv := newFleetLoad(params{seed: 1, scale: 1}).fleetConfig().Vehicle
	if fv.Pipeline || fv.Quant || fv.Sched {
		t.Errorf("fleet vehicle template picked up process defaults: %+v", fv)
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: name %q (want %q), why of %d chars", i, w.Name, workloadNames[i], len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		m := bj.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table says %s %s %s %g", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		m := bj.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table says %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestReadmeDocumentsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !strings.Contains(doc, "`"+d.Name+"`") {
			t.Errorf("README.md does not mention `%s`", d.Name)
		}
	}
}

func TestCheckVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_us_p50", Better: "lower", Bound: 0.25, Class: "host"}
	higher := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.25, Class: "host"}
	count := metricDef{Name: "rpr.swaps", Class: "count"}
	cases := []struct {
		d        metricDef
		endToEnd bool
		a, b     float64
		errPct   float64
		want     string
	}{
		{lower, true, 100, 110, 5, "ok"},
		{lower, true, 100, 130, 5, "WORSE"},
		{lower, true, 100, 60, 5, "better"},
		{lower, true, 100, 110, 30, "unresolved"},
		{lower, true, 100, 130, 30, "WORSE"},
		{higher, true, 100, 70, 5, "WORSE"},
		{higher, true, 100, 140, 5, "better"},
		{higher, true, 100, 95, 5, "ok"},
		{count, false, 1200, 1200, 5, "exact"},
		{count, false, 1200, 1199, 5, "MISMATCH"},
		{lower, false, 100, 500, 5, ""},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.endToEnd, c.a, c.b, c.errPct); got != c.want {
			t.Errorf("verdict(%s, e2e=%v, %g→%g, median ±%g%%) = %q, want %q", c.d.Name, c.endToEnd, c.a, c.b, c.errPct, got, c.want)
		}
	}
}

// TestSmoke runs all four workloads at 1/50 scale through both passes with
// every check on, writes a result file and the traces, and checks the file
// against itself.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short")
	}
	out := t.TempDir()
	if code := run([]string{"-smoke", "-out", out}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	res, err := readResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Host.NumCPU < 1 || res.Host.GoVersion == "" || res.Host.CPUModel == "" || res.Host.Scale != 1.0/50 {
		t.Errorf("host record incomplete: %+v", res.Host)
	}
	if len(res.Workloads) != len(workloadNames) {
		t.Fatalf("result file has %d workloads, want %d", len(res.Workloads), len(workloadNames))
	}
	for _, w := range res.Workloads {
		if !w.Correct || w.Ops == 0 || w.OpsFailed != 0 {
			t.Errorf("%s: correct=%v ops=%d failed=%d %v", w.Name, w.Correct, w.Ops, w.OpsFailed, w.Failures)
		}
		for _, d := range endToEndDefs {
			if v := w.EndToEnd[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end %s = %+v, want a positive %s", w.Name, d.Name, v, d.Unit)
			}
		}
		if len(w.PerLayer) != len(perLayerDefs) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(w.PerLayer), len(perLayerDefs))
		}
		if w.Config == nil {
			t.Errorf("%s: no effective config recorded", w.Name)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if code := compare(os.Stdout, res, res); code != 0 {
		t.Errorf("a result file checked against itself exited %d", code)
	}
	if left, _ := filepath.Glob(".benchmark-work-*"); len(left) > 0 {
		t.Errorf("work directories left behind: %v", left)
	}
}
