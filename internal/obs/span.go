package obs

import (
	"bytes"
	"cmp"
	"io"
	"slices"
	"strconv"
	"time"
)

// PIDVirtual is the process ID of the virtual-time trace track. Its spans
// derive only from the simulation clock and latency draws, so their byte
// content is part of the determinism contract.
const PIDVirtual = 1

// spanEvent is one buffered trace event. Name and parent must be static
// strings (package constants), so buffering a span never allocates beyond
// amortized slice growth.
type spanEvent struct {
	pid    uint8
	tid    uint8
	cycle  int32
	name   string
	parent string
	ts     time.Duration
	dur    time.Duration
}

// threadMeta names one (pid, tid) lane for the viewer.
type threadMeta struct {
	pid  uint8
	tid  uint8
	name string
}

// SpanWriter records spans and exports them as Chrome trace_event JSON
// (the JSON array format Perfetto and chrome://tracing load). Events are
// buffered and sorted by (pid, tid, ts) at Close, so every track's
// timestamps are monotonic in the output no matter how cycle latencies
// overlap. Span and its callers must not retain dynamic strings: names are
// package constants, which keeps the steady-state record path free of
// per-span allocations.
//
// The writer is safe for single-goroutine use (the SoV control loop); Close
// must follow the last Span.
type SpanWriter struct {
	w         io.Writer
	events    []spanEvent
	threads   []threadMeta
	processes []threadMeta // tid unused
	closed    bool
}

// NewSpanWriter buffers spans for the given sink.
func NewSpanWriter(w io.Writer) *SpanWriter {
	return &SpanWriter{w: w}
}

// DeclareProcess names a process track (for example "sov virtual time").
// Call during setup, before the first Span on that pid.
func (sw *SpanWriter) DeclareProcess(pid int, name string) {
	sw.processes = append(sw.processes, threadMeta{pid: uint8(pid), name: name})
}

// DeclareThread names one (pid, tid) lane. Call during setup.
func (sw *SpanWriter) DeclareThread(pid, tid int, name string) {
	sw.threads = append(sw.threads, threadMeta{pid: uint8(pid), tid: uint8(tid), name: name})
}

// Span buffers one complete ("ph":"X") event. name and parent must be
// static strings without JSON metacharacters; parent is the causally
// preceding span's name ("" for roots) and lands in args.parent alongside
// args.cycle.
//
//sov:hotpath
func (sw *SpanWriter) Span(pid, tid int, name, parent string, cycle int, start, dur time.Duration) {
	sw.events = append(sw.events, spanEvent{
		pid:    uint8(pid),
		tid:    uint8(tid),
		cycle:  int32(cycle),
		name:   name,
		parent: parent,
		ts:     start,
		dur:    dur,
	})
}

// N returns the number of buffered span events (metadata excluded).
func (sw *SpanWriter) N() int { return len(sw.events) }

// appendUS renders a duration as trace_event microseconds with fixed
// 3-decimal precision: the text of AppendFloat(ns/1e3, 'f', 3). For
// 0 ≤ ns < 2^52 that is quotient, point, zero-padded remainder: ns is exact
// in a float64, the division is off by at most ns/1e3·2^-53 < 0.0005, and
// the true value is on the 3-decimal grid, so 'f' rounds back onto it.
func appendUS(b []byte, d time.Duration) []byte {
	if d < 0 || d >= 1<<52 {
		return strconv.AppendFloat(b, float64(d.Nanoseconds())/1e3, 'f', 3, 64)
	}
	b = strconv.AppendInt(b, int64(d/1000), 10)
	frac := int(d % 1000)
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// spanChunk bounds Close's buffer: the file goes out in writes of this size.
const spanChunk = 32 << 10

// Close sorts the buffered events by (pid, tid, ts, insertion order),
// writes the JSON array — one event per line — and returns the number of
// span events written and the first write error.
func (sw *SpanWriter) Close() (int, error) {
	if sw.closed {
		return len(sw.events), nil
	}
	sw.closed = true
	slices.SortStableFunc(sw.events, func(a, b spanEvent) int {
		return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(a.tid, b.tid), cmp.Compare(a.ts, b.ts))
	})

	b := append(make([]byte, 0, spanChunk+256), "[\n"...)
	for _, p := range sw.processes {
		b = append(b, `{"ph":"M","pid":`...)
		b = strconv.AppendInt(b, int64(p.pid), 10)
		b = append(b, `,"name":"process_name","args":{"name":"`...)
		b = append(b, p.name...)
		b = append(b, "\"}},\n"...)
	}
	for _, t := range sw.threads {
		b = append(b, `{"ph":"M","pid":`...)
		b = strconv.AppendInt(b, int64(t.pid), 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(t.tid), 10)
		b = append(b, `,"name":"thread_name","args":{"name":"`...)
		b = append(b, t.name...)
		b = append(b, "\"}},\n"...)
	}
	for _, ev := range sw.events {
		if len(b) >= spanChunk {
			if _, err := sw.w.Write(b); err != nil {
				return len(sw.events), err
			}
			b = b[:0]
		}
		b = append(b, `{"ph":"X","pid":`...)
		b = strconv.AppendInt(b, int64(ev.pid), 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(ev.tid), 10)
		b = append(b, `,"name":"`...)
		b = append(b, ev.name...)
		b = append(b, `","ts":`...)
		b = appendUS(b, ev.ts)
		b = append(b, `,"dur":`...)
		b = appendUS(b, ev.dur)
		b = append(b, `,"args":{"cycle":`...)
		b = strconv.AppendInt(b, int64(ev.cycle), 10)
		if ev.parent != "" {
			b = append(b, `,"parent":"`...)
			b = append(b, ev.parent...)
			b = append(b, '"')
		}
		b = append(b, "}},\n"...)
	}
	b = append(bytes.TrimSuffix(b, []byte(",\n")), "\n]\n"...)
	_, err := sw.w.Write(b)
	return len(sw.events), err
}
