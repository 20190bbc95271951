package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"sov/internal/obs"
)

// exposition renders reg's text exposition as name → value lines.
func exposition(t *testing.T, reg *obs.Registry) (string, map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf, false); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			got[name] = val
		}
	}
	return buf.String(), got
}

// schedUnderPressure is the metric audit's scene that moves all three
// scheduler counters: a contended start in a hot enclosure remaps, switches
// operating point and swaps bitstreams.
func schedUnderPressure() Config {
	cfg := DefaultConfig()
	cfg.Sched, cfg.SchedMapping, cfg.AmbientC = true, "GPU/GPU", 45
	return cfg
}

// TestObsMetricsMatchReport: every counter the registry exposes is written
// from the report (and the scheduler's snapshot) at Finish, and the
// per-cycle histograms count one observation per cycle.
func TestObsMetricsMatchReport(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		dur  time.Duration
	}{
		{"cruise", DefaultConfig(), 30 * time.Second},
		{"sched under pressure", schedUnderPressure(), 90 * time.Second},
	} {
		s := New(c.cfg, CruiseScenario(c.cfg.Seed))
		reg := obs.NewRegistry()
		s.AttachMetrics(reg)
		rep := s.Run(c.dur)
		_, got := exposition(t, reg)
		check := func(name string, want int) {
			t.Helper()
			if got[name] != itoa(want) {
				t.Errorf("%s: %s = %s, report says %d", c.name, name, got[name], want)
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
		if _, ok := got["sov_distance_m"]; !ok {
			t.Errorf("%s: run-summary gauge sov_distance_m missing from exposition", c.name)
		}
		if sc := rep.Sched; sc != nil {
			if sc.Remaps == 0 || sc.OpSwitches == 0 || sc.Swaps == 0 {
				t.Errorf("%s: scene leaves a scheduler counter at zero: %+v", c.name, *sc)
			}
			check("sov_sched_remaps_total", sc.Remaps)
			check("sov_sched_op_switches_total", sc.OpSwitches)
			check("sov_sched_rpr_swaps_total", sc.Swaps)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestObsSpanCountAndLayout: every cycle contributes exactly ten spans on
// the virtual track, and the span file as written parses to the same count.
func TestObsSpanCountAndLayout(t *testing.T) {
	s := New(DefaultConfig(), CruiseScenario(3))
	var buf bytes.Buffer
	sw := obs.NewSpanWriter(&buf)
	s.AttachSpans(sw)
	rep := s.Run(20 * time.Second)
	if _, err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	spans := strings.Count(buf.String(), `"ph":"X"`)
	if want := rep.Cycles * 10; spans != want {
		t.Fatalf("virtual spans = %d, want %d (10 per cycle over %d cycles)", spans, want, rep.Cycles)
	}
	sum, err := obs.SummarizeSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cycles != rep.Cycles || sum.Events != spans {
		t.Fatalf("summary sees %d events over %d cycles, want %d over %d", sum.Events, sum.Cycles, spans, rep.Cycles)
	}
}

// TestObsFlightRecorderCapturesReactive: a sudden obstacle inside the
// proactive envelope engages the reactive path, and the flight recorder must
// dump the surrounding cycles.
func TestObsFlightRecorderCapturesReactive(t *testing.T) {
	cfg := DefaultConfig()
	w := cutInScenario(cfg.TargetSpeed, 4.5)
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
