package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// emitTestSpans writes two cycles of a realistic stage tree, deliberately
// interleaved so cycle 2's sensing is buffered before cycle 1's planning —
// the writer must still emit monotonic timestamps per lane.
func emitTestSpans(sw *SpanWriter) {
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }
	sw.DeclareProcess(PIDVirtual, "sov virtual time")
	sw.DeclareProcess(PIDHost, "host wall-clock")
	sw.DeclareThread(PIDVirtual, 1, "sensing")
	sw.DeclareThread(PIDVirtual, 2, "perception")
	sw.DeclareThread(PIDVirtual, 3, "depth")
	sw.DeclareThread(PIDVirtual, 4, "detect")
	sw.DeclareThread(PIDVirtual, 5, "track")
	sw.DeclareThread(PIDVirtual, 6, "vio")
	sw.DeclareThread(PIDVirtual, 7, "planning")

	// Cycle 1 at t0=0: detect+track (70+1) beats depth (40) and vio (30).
	sw.Span(PIDVirtual, 1, "sensing", "", 1, ms(0), ms(84))
	sw.Span(PIDVirtual, 2, "perception", "sensing", 1, ms(84), ms(71))
	sw.Span(PIDVirtual, 3, "depth", "perception", 1, ms(84), ms(40))
	sw.Span(PIDVirtual, 4, "detect", "perception", 1, ms(84), ms(70))
	sw.Span(PIDVirtual, 5, "track", "perception", 1, ms(154), ms(1))
	sw.Span(PIDVirtual, 6, "vio", "perception", 1, ms(84), ms(30))

	// Cycle 2 at t0=100 interleaves before cycle 1's planning: vio (90)
	// dominates depth (40) and detect+track (72).
	sw.Span(PIDVirtual, 1, "sensing", "", 2, ms(100), ms(80))
	sw.Span(PIDVirtual, 2, "perception", "sensing", 2, ms(180), ms(90))
	sw.Span(PIDVirtual, 3, "depth", "perception", 2, ms(180), ms(40))
	sw.Span(PIDVirtual, 4, "detect", "perception", 2, ms(180), ms(71))
	sw.Span(PIDVirtual, 5, "track", "perception", 2, ms(251), ms(1))
	sw.Span(PIDVirtual, 6, "vio", "perception", 2, ms(180), ms(90))

	sw.Span(PIDVirtual, 7, "planning", "perception", 1, ms(155), ms(3))
	sw.Span(PIDVirtual, 7, "planning", "perception", 2, ms(270), ms(3))

	// One host wall-clock span on the separate track.
	sw.Span(PIDHost, 1, "busy", "", 0, 0, ms(12))
}

// TestSpanWriterPerfettoSchema: the output must be valid JSON in the Chrome
// trace_event array form — metadata naming both processes, complete events
// with microsecond timestamps — and every (pid, tid) lane's timestamps must
// be non-decreasing despite interleaved emission.
func TestSpanWriterPerfettoSchema(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	emitTestSpans(sw)
	if sw.N() != 15 {
		t.Fatalf("buffered %d spans, want 15", sw.N())
	}
	n, err := sw.Close()
	if err != nil || n != 15 {
		t.Fatalf("Close = %d, %v", n, err)
	}

	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("span file is not valid JSON: %v", err)
	}
	meta, complete := 0, 0
	type lane struct{ pid, tid int }
	lastTS := map[lane]float64{}
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			l := lane{ev.Pid, ev.Tid}
			if prev, ok := lastTS[l]; ok && ev.Ts < prev {
				t.Fatalf("lane %+v timestamps regress: %v after %v", l, ev.Ts, prev)
			}
			lastTS[l] = ev.Ts
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if complete != 15 {
		t.Fatalf("complete events = %d, want 15", complete)
	}
	// 2 process_name + 7 thread_name metadata records.
	if meta != 9 {
		t.Fatalf("metadata events = %d, want 9", meta)
	}
	if !strings.Contains(buf.String(), `"name":"process_name","args":{"name":"sov virtual time"}`) {
		t.Fatal("virtual process track not labeled")
	}
	if !strings.Contains(buf.String(), `"name":"process_name","args":{"name":"host wall-clock"}`) {
		t.Fatal("host process track not labeled")
	}

	// Second Close is a no-op, not a duplicate write.
	sizeBefore := buf.Len()
	if _, err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != sizeBefore {
		t.Fatal("second Close rewrote the file")
	}
}

// TestSpanWriterDeterministicBytes: same spans, same bytes — even when the
// two writers buffer the events in different interleavings, the
// sort-at-Close canonicalizes the output. A trace of several chunks must be
// the bytes one buffer and the float formatter used to produce, handed to
// the sink in bounded writes; and a sink that fails mid-file stops the
// writer at that write and gets its error back.
func TestSpanWriterDeterministicBytes(t *testing.T) {
	var a, b bytes.Buffer
	swA := NewSpanWriter(&a)
	emitTestSpans(swA)
	if _, err := swA.Close(); err != nil {
		t.Fatal(err)
	}
	swB := NewSpanWriter(&b)
	emitTestSpans(swB)
	if _, err := swB.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical span streams produced different bytes")
	}

	// 3000 events on one lane, emitted in timestamp order (so the sort keeps
	// them), with nanosecond-odd timestamps and durations.
	const n = 3000
	event := func(i int) (ts, dur time.Duration, parent string) {
		ts, dur = time.Duration(i)*100*time.Millisecond+time.Duration(i%1000), time.Duration(70_000_001+i*37)
		if i%3 != 0 {
			parent = "perception"
		}
		return ts, dur, parent
	}
	emit := func(sw *SpanWriter) {
		sw.DeclareProcess(PIDVirtual, "sov virtual time")
		sw.DeclareThread(PIDVirtual, 4, "detect")
		for i := 0; i < n; i++ {
			ts, dur, parent := event(i)
			sw.Span(PIDVirtual, 4, "detect", parent, i, ts, dur)
		}
	}
	us := func(d time.Duration) string { return strconv.FormatFloat(float64(d.Nanoseconds())/1e3, 'f', 3, 64) }
	want := []string{`{"ph":"M","pid":1,"name":"process_name","args":{"name":"sov virtual time"}}`,
		`{"ph":"M","pid":1,"tid":4,"name":"thread_name","args":{"name":"detect"}}`}
	for i := 0; i < n; i++ {
		ts, dur, parent := event(i)
		if parent != "" {
			parent = `,"parent":"` + parent + `"`
		}
		want = append(want, fmt.Sprintf(`{"ph":"X","pid":1,"tid":4,"name":"detect","ts":%s,"dur":%s,"args":{"cycle":%d%s}}`,
			us(ts), us(dur), i, parent))
	}
	var sink chunkSink
	sw := NewSpanWriter(&sink)
	emit(sw)
	if got, err := sw.Close(); err != nil || got != n {
		t.Fatalf("Close = %d, %v", got, err)
	}
	if wantBytes := "[\n" + strings.Join(want, ",\n") + "\n]\n"; sink.buf.String() != wantBytes {
		t.Fatalf("chunked output (%d bytes) differs from the single-buffer rendering (%d bytes)", sink.buf.Len(), len(wantBytes))
	}
	if sink.writes < 3 || sink.largest > spanChunk+256 {
		t.Fatalf("%d bytes went out in %d writes, largest %d: want several writes of about %d", sink.buf.Len(), sink.writes, sink.largest, spanChunk)
	}

	failing := chunkSink{failAt: 2}
	sw = NewSpanWriter(&failing)
	emit(sw)
	if got, err := sw.Close(); !errors.Is(err, errSinkFull) || got != n {
		t.Fatalf("Close on a sink failing at write 2 = %d, %v", got, err)
	}
	if failing.writes != 2 {
		t.Fatalf("writer kept going after the failed write: %d writes", failing.writes)
	}
}

var errSinkFull = errors.New("sink full")

// chunkSink records how the writer hands the file over, and fails the
// failAt'th write when failAt is set.
type chunkSink struct {
	buf             bytes.Buffer
	writes, largest int
	failAt          int
}

func (s *chunkSink) Write(p []byte) (int, error) {
	s.writes++
	if s.writes == s.failAt {
		return 0, errSinkFull
	}
	s.largest = max(s.largest, len(p))
	return s.buf.Write(p)
}

// TestAppendUSMatchesFloat holds the integer rendering of microseconds to
// the float formatter it replaces, on both sides of the 2^52 ns bound past
// which appendUS keeps the float form, and on negative durations.
func TestAppendUSMatchesFloat(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		want := strconv.FormatFloat(float64(d.Nanoseconds())/1e3, 'f', 3, 64)
		if got := string(appendUS(nil, d)); got != want {
			t.Fatalf("appendUS(%d ns) = %s, want %s", d, got, want)
		}
	}
	for _, d := range []time.Duration{0, 1, 9, 10, 99, 100, 999, 1000, 1001, 1999, 84 * time.Millisecond, time.Hour + 1,
		1<<52 - 1001, 1<<52 - 1, 1 << 52, 1<<52 + 1, 1<<53 + 1, 1<<62 + 12345, -1, -999, -1500, -1 << 52} {
		check(d)
	}
	// A multiplicative walk over every magnitude below the bound, with the
	// remainders that round worst (…499, …500, …501, …999) at each step.
	for d := time.Duration(1); d < 1<<52; d = d*3/2 + 7 {
		for _, frac := range []time.Duration{0, 1, 499, 500, 501, 999} {
			check(d/1000*1000 + frac)
		}
	}
}

// TestSummarizeSpans reads back a SpanWriter file: per-stage distributions
// over virtual events only, and per-cycle critical-path attribution —
// detect+track dominates cycle 1, vio dominates cycle 2.
func TestSummarizeSpans(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	emitTestSpans(sw)
	if _, err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := SummarizeSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 14 || sum.HostEvents != 1 || sum.Cycles != 2 {
		t.Fatalf("events=%d host=%d cycles=%d, want 14/1/2", sum.Events, sum.HostEvents, sum.Cycles)
	}
	byName := map[string]StageSummary{}
	for _, st := range sum.Stages {
		byName[st.Name] = st
	}
	if s, ok := byName["sensing"]; !ok || s.DurMs.N != 2 || s.DurMs.Mean != 82 {
		t.Fatalf("sensing summary wrong: %+v", byName["sensing"])
	}
	if _, ok := byName["busy"]; ok {
		t.Fatal("host span leaked into virtual stage statistics")
	}
	wins := map[string]int{}
	for _, c := range sum.Critical {
		wins[c.Chain] = c.Cycles
	}
	if wins["detect+track"] != 1 || wins["vio"] != 1 || wins["depth"] != 0 {
		t.Fatalf("critical-path attribution wrong: %+v", sum.Critical)
	}

	// Malformed input surfaces as an error, not a zero summary.
	if _, err := SummarizeSpans(strings.NewReader("not json")); err == nil {
		t.Fatal("expected parse error for malformed span file")
	}
}
