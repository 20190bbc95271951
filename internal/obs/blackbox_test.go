package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func rec(cycle int, tMs float64, blocked bool) CycleRecord {
	return CycleRecord{Cycle: cycle, TMs: tMs, TcompMs: 160, Blocked: blocked}
}

func parseDumps(t *testing.T, buf *bytes.Buffer) []Dump {
	t.Helper()
	var dumps []Dump
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var d Dump
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad dump line: %v\n%s", err, line)
		}
		dumps = append(dumps, d)
	}
	return dumps
}

// TestFlightRecorderDeferredTrigger: a trigger raised ahead of the record
// stream must wait for the stream to reach its virtual time, so the dump
// contains exactly the cycles up to the trigger — regardless of how far the
// recording (plan) stage lags the triggering (engine) thread on the host.
func TestFlightRecorderDeferredTrigger(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlightRecorder(&buf, 4, 0)
	for c := 1; c <= 3; c++ {
		f.Record(rec(c, float64(c-1)*100, false))
	}
	// The physics thread reports a collision at t=250 ms — between records
	// 3 (t=200) and 4 (t=300).
	f.Trigger(TriggerCollision, 250)
	if st := f.Stats(); st.Dumps != 0 {
		t.Fatalf("dump fired before the record stream caught up: %+v", st)
	}
	f.Record(rec(4, 300, false))
	st := f.Stats()
	if st.Dumps != 1 || st.ByTrigger[TriggerCollision] != 1 {
		t.Fatalf("deferred dump did not fire on catch-up: %+v", st)
	}
	if _, err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dumps := parseDumps(t, &buf)
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Trigger != "collision" || d.TMs != 250 || d.Recorded != 4 {
		t.Fatalf("dump header wrong: %+v", d)
	}
	if len(d.Records) != 4 || d.Records[0].Cycle != 1 || d.Records[3].Cycle != 4 {
		t.Fatalf("dump ring wrong (want cycles 1..4 oldest-first): %+v", d.Records)
	}
}

// TestFlightRecorderRingEviction: the ring keeps only the last depth cycles.
func TestFlightRecorderRingEviction(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlightRecorder(&buf, 3, 0)
	for c := 1; c <= 10; c++ {
		f.Record(rec(c, float64(c-1)*100, false))
	}
	f.Trigger(TriggerCollision, 900)
	f.Record(rec(11, 1000, false))
	if _, err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d := parseDumps(t, &buf)[0]
	if len(d.Records) != 3 || d.Records[0].Cycle != 9 || d.Records[2].Cycle != 11 {
		t.Fatalf("ring should hold cycles 9..11, got %+v", d.Records)
	}
}

// TestFlightRecorderRateLimit: repeated triggers of one kind inside the
// virtual-time gap collapse to one dump (counted as suppressed); a different
// kind still dumps, and the same kind dumps again past the gap.
func TestFlightRecorderRateLimit(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlightRecorder(&buf, 8, 0)
	f.Record(rec(1, 0, false))
	f.Trigger(TriggerReactive, 0)
	f.Trigger(TriggerReactive, 50)
	f.Trigger(TriggerCollision, 60)
	f.Record(rec(2, 100, false))
	f.Trigger(TriggerReactive, 1200)
	f.Record(rec(3, 1300, false))
	if _, err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Dumps != 3 || st.ByTrigger[TriggerReactive] != 3 {
		t.Fatalf("dumps=%d reactive triggers=%d, want 3 and 3 (one suppressed): %+v", st.Dumps, st.ByTrigger[TriggerReactive], st)
	}
	dumps := parseDumps(t, &buf)
	if dumps[0].Trigger != "reactive-engagement" || dumps[1].Trigger != "collision" || dumps[2].Trigger != "reactive-engagement" {
		t.Fatalf("dump triggers wrong: %+v", dumps)
	}
}

// TestFlightRecorderBlockedStreak: the streak trigger is raised internally
// when the configured number of consecutive blocked cycles lands in the
// ring; a non-blocked cycle resets the streak.
func TestFlightRecorderBlockedStreak(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlightRecorder(&buf, 8, 3)
	f.Record(rec(1, 0, true))
	f.Record(rec(2, 100, true))
	f.Record(rec(3, 200, false)) // resets
	f.Record(rec(4, 300, true))
	f.Record(rec(5, 400, true))
	if st := f.Stats(); st.Dumps != 0 {
		t.Fatalf("streak fired early: %+v", st)
	}
	f.Record(rec(6, 500, true))
	st := f.Stats()
	if st.Dumps != 1 || st.ByTrigger[TriggerBlockedStreak] != 1 {
		t.Fatalf("streak of 3 did not dump: %+v", st)
	}
	if _, err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if d := parseDumps(t, &buf)[0]; d.Trigger != "blocked-streak" || d.TMs != 500 {
		t.Fatalf("streak dump wrong: %+v", d)
	}
}

// TestFlightRecorderCloseFlushesPending: triggers still waiting at end of
// run dump against the final ring instead of being lost.
func TestFlightRecorderCloseFlushesPending(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlightRecorder(&buf, 4, 0)
	f.Record(rec(1, 0, false))
	f.Trigger(TriggerCollision, 9999) // beyond the last record
	n, err := f.Close()
	if err != nil || n != 1 {
		t.Fatalf("Close = %d, %v, want 1 dump", n, err)
	}
	if d := parseDumps(t, &buf)[0]; d.Trigger != "collision" || len(d.Records) != 1 {
		t.Fatalf("flushed dump wrong: %+v", d)
	}
}

// TestFlightRecorderBoundedTriggerQueue: an anomaly storm beyond the pending
// capacity drops triggers instead of growing without bound.
func TestFlightRecorderBoundedTriggerQueue(t *testing.T) {
	f := NewFlightRecorder(&bytes.Buffer{}, 4, 0)
	for i := 0; i < maxPending+5; i++ {
		f.Trigger(TriggerReactive, float64(i))
	}
	if f.nPending != maxPending || len(f.pending) != maxPending {
		t.Fatalf("pending = %d of %d, want the queue full at %d", f.nPending, len(f.pending), maxPending)
	}
}
