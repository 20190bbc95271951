package obs

import (
	"bytes"
	"cmp"
	"io"
	"math"
	"slices"
	"strconv"
	"time"
)

// PIDVirtual is the process ID of the virtual-time trace track. Its spans
// derive only from the simulation clock and latency draws, so their byte
// content is part of the determinism contract.
const PIDVirtual = 1

// spanEvent is one buffered span in 24 bytes: its lane holds pid and tid,
// and name and parent are indices into the writer's interned names (0 is
// ""). Names are static strings (package constants), so a writer interns a
// handful once and a span keeps no string header.
type spanEvent struct {
	name, parent uint16
	cycle        int32
	ts, dur      time.Duration
}

// spanBlock is how many events a lane allocates at a time: 6 KB blocks, so
// a lane keeps its events where they were first written and allocates at
// most one partly filled block beyond them.
const spanBlock = 256

// spanLane buffers one (pid, tid) track's events in insertion order.
type spanLane struct {
	n      int
	blocks []*[spanBlock]spanEvent // all full but the last
}

// threadMeta names one (pid, tid) lane for the viewer.
type threadMeta struct {
	pid  uint8
	tid  uint8
	name string
}

// SpanWriter records spans and exports them as Chrome trace_event JSON
// (the JSON array format Perfetto and chrome://tracing load). Events are
// buffered per (pid, tid) lane and each lane is stable-sorted by ts at
// Close, so every track's timestamps are monotonic in the output no matter
// how cycle latencies overlap, and equal timestamps keep insertion order.
// Span and its callers must not retain dynamic strings: names are package
// constants, which keeps the steady-state record path free of per-span
// allocations.
//
// The writer is safe for single-goroutine use (the SoV control loop); Close
// must follow the last Span.
type SpanWriter struct {
	w         io.Writer
	lanes     map[uint16]*spanLane // by pid<<8 | tid
	names     []string
	nameOf    map[string]uint16
	n         int
	threads   []threadMeta
	processes []threadMeta // tid unused
	closed    bool
}

// NewSpanWriter buffers spans for the given sink.
func NewSpanWriter(w io.Writer) *SpanWriter {
	return &SpanWriter{w: w, lanes: map[uint16]*spanLane{}, names: []string{""}, nameOf: map[string]uint16{"": 0}}
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
func (sw *SpanWriter) Span(pid, tid int, name, parent string, cycle int, start, dur time.Duration) {
	key := uint16(uint8(pid))<<8 | uint16(uint8(tid))
	ln := sw.lanes[key]
	if ln == nil {
		ln = &spanLane{}
		sw.lanes[key] = ln
	}
	i := ln.n % spanBlock
	if i == 0 {
		ln.blocks = append(ln.blocks, new([spanBlock]spanEvent))
	}
	ln.blocks[len(ln.blocks)-1][i] = spanEvent{name: sw.intern(name), parent: sw.intern(parent), cycle: int32(cycle), ts: start, dur: dur}
	ln.n++
	sw.n++
}

// intern returns name's index in sw.names, adding it on first use.
func (sw *SpanWriter) intern(name string) uint16 {
	if i, ok := sw.nameOf[name]; ok {
		return i
	}
	if len(sw.names) > math.MaxUint16 {
		panic("obs: more than 65536 distinct span names; span names must be static")
	}
	i := uint16(len(sw.names))
	sw.names = append(sw.names, name)
	sw.nameOf[name] = i
	return i
}

// N returns the number of buffered span events (metadata excluded).
func (sw *SpanWriter) N() int { return sw.n }

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

// Close writes the JSON array — metadata, then each lane in (pid, tid)
// order, its events stable-sorted by ts, one event per line — and returns
// the number of span events written and the first write error. That is the
// order of one stable sort of every event by (pid, tid, ts).
func (sw *SpanWriter) Close() (int, error) {
	if sw.closed {
		return sw.n, nil
	}
	sw.closed = true

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
	// Each lane is copied out of its blocks into one scratch slice, sized
	// once for the longest lane, and stable-sorted there if out of order.
	keys := make([]uint16, 0, len(sw.lanes))
	longest := 0
	for key, ln := range sw.lanes {
		keys = append(keys, key)
		longest = max(longest, ln.n)
	}
	slices.Sort(keys)
	evs := make([]spanEvent, 0, longest)
	byTS := func(a, b spanEvent) int { return cmp.Compare(a.ts, b.ts) }
	for _, key := range keys {
		ln := sw.lanes[key]
		evs = evs[:0]
		for _, blk := range ln.blocks {
			evs = append(evs, blk[:min(spanBlock, ln.n-len(evs))]...)
		}
		if !slices.IsSortedFunc(evs, byTS) {
			slices.SortStableFunc(evs, byTS)
		}
		for i := range evs {
			if len(b) >= spanChunk {
				if _, err := sw.w.Write(b); err != nil {
					return sw.n, err
				}
				b = b[:0]
			}
			ev := &evs[i]
			b = append(b, `{"ph":"X","pid":`...)
			b = strconv.AppendInt(b, int64(key>>8), 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(key&0xff), 10)
			b = append(b, `,"name":"`...)
			b = append(b, sw.names[ev.name]...)
			b = append(b, `","ts":`...)
			b = appendUS(b, ev.ts)
			b = append(b, `,"dur":`...)
			b = appendUS(b, ev.dur)
			b = append(b, `,"args":{"cycle":`...)
			b = strconv.AppendInt(b, int64(ev.cycle), 10)
			if ev.parent != 0 {
				b = append(b, `,"parent":"`...)
				b = append(b, sw.names[ev.parent]...)
				b = append(b, '"')
			}
			b = append(b, "}},\n"...)
		}
	}
	b = append(bytes.TrimSuffix(b, []byte(",\n")), "\n]\n"...)
	_, err := sw.w.Write(b)
	return sw.n, err
}
