package canbus

import (
	"strings"
	"testing"
	"time"
)

func TestDefaultScheduleLoadLow(t *testing.T) {
	load := BusLoad(DefaultSchedule(), 500_000)
	// The vehicle bus is nearly idle — a design property, not an accident.
	if load > 0.05 {
		t.Fatalf("bus load = %.3f, want < 5%%", load)
	}
	if load <= 0 {
		t.Fatal("load must be positive")
	}
}

func TestAllDeadlinesMet(t *testing.T) {
	rts := AnalyzeSchedule(DefaultSchedule(), 500_000)
	for _, rt := range rts {
		if !rt.MeetsDeadline {
			t.Fatalf("%s misses its deadline: %v > %v", rt.Message.Name, rt.WorstCase, rt.Message.Period)
		}
	}
}

func TestReactiveOverrideHasLowestWorstCase(t *testing.T) {
	// The safety override is the highest-priority frame: its worst case
	// is one blocking frame plus its own transmission — well under 1 ms.
	rts := AnalyzeSchedule(DefaultSchedule(), 500_000)
	if rts[0].Message.ID != IDReactiveOverride {
		t.Fatal("analysis not sorted by priority")
	}
	if rts[0].WorstCase > time.Millisecond {
		t.Fatalf("override worst case = %v, want < 1 ms", rts[0].WorstCase)
	}
	own := frameTime(rts[0].Message, 500_000)
	if rts[0].WorstCase != rts[0].Blocking+own {
		t.Fatalf("highest priority should see no interference: %v != %v + %v", rts[0].WorstCase, rts[0].Blocking, own)
	}
	// Lower priorities accumulate interference.
	last := rts[len(rts)-1]
	if last.WorstCase <= last.Blocking+frameTime(last.Message, 500_000) {
		t.Fatal("lowest priority should see interference")
	}
}

func TestWorstCaseMonotonicInPriority(t *testing.T) {
	rts := AnalyzeSchedule(DefaultSchedule(), 500_000)
	for i := 1; i < len(rts); i++ {
		if rts[i].WorstCase < rts[i-1].WorstCase {
			t.Fatalf("worst case not monotonic: %v then %v", rts[i-1].WorstCase, rts[i].WorstCase)
		}
	}
}

func TestOverloadedBusDetected(t *testing.T) {
	// 1000 Hz × many messages on a slow bus: the analysis must flag it.
	sched := []PeriodicMessage{
		{Name: "a", ID: 0x10, DLC: 8, Period: time.Millisecond},
		{Name: "b", ID: 0x20, DLC: 8, Period: time.Millisecond},
		{Name: "c", ID: 0x30, DLC: 8, Period: time.Millisecond},
		{Name: "d", ID: 0x40, DLC: 8, Period: time.Millisecond},
	}
	if BusLoad(sched, 125_000) < 1 {
		t.Fatal("expected overload")
	}
	rts := AnalyzeSchedule(sched, 125_000)
	missed := false
	for _, rt := range rts {
		if !rt.MeetsDeadline {
			missed = true
		}
	}
	if !missed {
		t.Fatal("overloaded schedule reported schedulable")
	}
}

func TestRenderAnalysis(t *testing.T) {
	rts := AnalyzeSchedule(DefaultSchedule(), 500_000)
	out := RenderAnalysis(rts, 500_000)
	for _, want := range []string{"reactive-override", "bus load", "control-command"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
