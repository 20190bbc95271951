package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"sov/internal/obs"
)

// obsOutputs is one instrumented run's telemetry artifacts, reduced to the
// pieces covered by the determinism contract.
type obsOutputs struct {
	metricsVirtual string // virtual-only registry exposition
	spansVirtual   string // PIDVirtual lines of the span file
	spanFile       string // the span file as written
	box            string // flight-recorder dump stream, verbatim
	rep            *Report
}

// obsRun executes one fully instrumented cruise.
func obsRun(t *testing.T, quant bool, dur time.Duration) obsOutputs {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Quant = quant
	s := New(cfg, CruiseScenario(3))

	reg := obs.NewRegistry()
	s.AttachMetrics(reg)
	var spanBuf, boxBuf bytes.Buffer
	sw := obs.NewSpanWriter(&spanBuf)
	s.AttachSpans(sw)
	box := obs.NewFlightRecorder(&boxBuf, 16, 3)
	s.AttachFlightRecorder(box)

	rep := s.Run(dur)
	if _, err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := box.Close(); err != nil {
		t.Fatal(err)
	}
	var met bytes.Buffer
	if err := reg.WriteText(&met, false); err != nil {
		t.Fatal(err)
	}
	// Keep only the virtual-time track: anything on PIDHost is a wall-clock
	// diagnostic outside the contract.
	var virt []string
	for _, line := range strings.Split(spanBuf.String(), "\n") {
		if strings.Contains(line, `"pid":1,`) {
			virt = append(virt, line)
		}
	}
	return obsOutputs{
		metricsVirtual: met.String(),
		spansVirtual:   strings.Join(virt, "\n"),
		spanFile:       spanBuf.String(),
		box:            boxBuf.String(),
		rep:            rep,
	}
}

// TestObsVirtualOutputsByteIdentical is the telemetry determinism contract:
// the virtual-only metrics exposition, the virtual span track, and the
// flight-recorder stream must be byte-identical from run to run, for both
// the float and quantized latency models.
func TestObsVirtualOutputsByteIdentical(t *testing.T) {
	const dur = 30 * time.Second
	for _, quant := range []bool{false, true} {
		name := "float"
		if quant {
			name = "quant"
		}
		ref := obsRun(t, quant, dur)
		if ref.rep.Cycles == 0 {
			t.Fatalf("%s: no cycles ran", name)
		}
		got := obsRun(t, quant, dur)
		if got.metricsVirtual != ref.metricsVirtual {
			t.Errorf("%s: virtual metrics exposition differs between two runs", name)
		}
		if got.spansVirtual != ref.spansVirtual {
			t.Errorf("%s: virtual span track differs between two runs", name)
		}
		if got.box != ref.box {
			t.Errorf("%s: flight-recorder stream differs between two runs", name)
		}
	}
}

// TestObsMetricsMatchReport: the registry's steady-state counters must agree
// exactly with the report's own counters — one source of truth, two views.
func TestObsMetricsMatchReport(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg, CruiseScenario(3))
	reg := obs.NewRegistry()
	s.AttachMetrics(reg)
	rep := s.Run(30 * time.Second)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf, true); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if ok {
			got[name] = val
		}
	}
	check := func(name string, want int) {
		t.Helper()
		if got[name] != itoa(want) {
			t.Errorf("%s = %s, report says %d", name, got[name], want)
		}
	}
	check("sov_cycles_total", rep.Cycles)
	check("sov_commands_delivered_total", rep.CommandsDelivered)
	check("sov_blocked_cycles_total", rep.BlockedCycles)
	check("sov_reactive_engagements_total", rep.ReactiveEngagements)
	check("sov_encode_errors_total", rep.EncodeErrors)
	check("sov_collisions_total", rep.Collisions)
	check("sov_tcomp_ms_count", rep.Cycles)
	check("sov_e2e_ms_count", rep.Cycles)
	check("sov_inflight_commands_count", rep.Cycles)
	// The per-cycle CommandLatency draw maps 1:1 onto cycles.
	check("sov_can_command_queries_total", rep.Cycles)
	if _, ok := got["sov_distance_m"]; !ok {
		t.Error("run-summary gauge sov_distance_m missing from exposition")
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestObsSpanCountAndLayout: every cycle contributes exactly ten spans on
// the virtual track, and the span file as written parses to the same count.
func TestObsSpanCountAndLayout(t *testing.T) {
	out := obsRun(t, false, 20*time.Second)
	virtSpans := strings.Count(out.spansVirtual, `"ph":"X"`)
	if want := out.rep.Cycles * 10; virtSpans != want {
		t.Fatalf("virtual spans = %d, want %d (10 per cycle over %d cycles)", virtSpans, want, out.rep.Cycles)
	}
	sum, err := obs.SummarizeSpans(strings.NewReader(out.spanFile))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cycles != out.rep.Cycles || sum.Events != virtSpans {
		t.Fatalf("summary sees %d events over %d cycles, want %d over %d", sum.Events, sum.Cycles, virtSpans, out.rep.Cycles)
	}
}

// TestObsFlightRecorderCapturesReactive: a sudden obstacle inside the
// proactive envelope engages the reactive path, and the flight recorder must
// dump the surrounding cycles.
func TestObsFlightRecorderCapturesReactive(t *testing.T) {
	cfg := DefaultConfig()
	w, _ := CutInScenario(cfg.TargetSpeed, 4.5)
	s := New(cfg, w)
	var buf bytes.Buffer
	box := obs.NewFlightRecorder(&buf, 16, 3)
	s.AttachFlightRecorder(box)
	rep := s.Run(30 * time.Second)
	if _, err := box.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.ReactiveEngagements == 0 {
		t.Skip("scenario did not engage the reactive path at this configuration")
	}
	if buf.Len() == 0 {
		t.Fatal("reactive engagement produced no flight-recorder dump")
	}
	var d obs.Dump
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &d); err != nil {
		t.Fatalf("bad dump: %v", err)
	}
	if d.Trigger != "reactive-engagement" || len(d.Records) == 0 {
		t.Fatalf("dump wrong: trigger=%q records=%d", d.Trigger, len(d.Records))
	}
}
