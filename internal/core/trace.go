package core

import (
	"bufio"
	"encoding/json"
	"io"
	"math"

	"sov/internal/stats"
)

// TraceRecord is one control cycle's telemetry — the "vehicle statistics"
// stream the deployed fleet condenses and uploads (Fig. 1). Recorded as
// JSON lines so field runs can be archived and re-analyzed offline.
type TraceRecord struct {
	Cycle          int     `json:"cycle"`
	TimeMs         float64 `json:"t_ms"`
	PosX           float64 `json:"x"`
	PosY           float64 `json:"y"`
	Speed          float64 `json:"v"`
	SensingMs      float64 `json:"sensing_ms"`
	PerceptionMs   float64 `json:"perception_ms"`
	PlanningMs     float64 `json:"planning_ms"`
	TcompMs        float64 `json:"tcomp_ms"`
	Complexity     float64 `json:"complexity"`
	Objects        int     `json:"objects"`
	Blocked        bool    `json:"blocked,omitempty"`
	ReactiveActive bool    `json:"reactive,omitempty"`
	// InFlight counts commands captured earlier but not yet delivered at
	// this cycle's capture instant — the virtual-time pipeline depth.
	InFlight int `json:"inflight"`
}

// Tracer serializes trace records to a writer.
type Tracer struct {
	w   *bufio.Writer
	n   int
	err error
}

// NewTracer wraps a writer.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriter(w)}
}

// Record appends one line. The marshaled bytes and the terminating newline
// are written separately: appending '\n' to json.Marshal's exactly-sized
// result would reallocate the slice on every record.
func (t *Tracer) Record(r TraceRecord) {
	if t.err != nil {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Err returns the first error the tracer hit, without flushing.
func (t *Tracer) Err() error { return t.err }

// Flush pushes buffered records to the underlying writer and returns the
// tracer's first error (including any flush error), with the same semantics
// Close reports.
func (t *Tracer) Flush() error {
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}

// Close flushes and reports the record count and first error.
func (t *Tracer) Close() (int, error) {
	return t.n, t.Flush()
}

// AttachTracer streams every control cycle of subsequent runs to the
// tracer. Call before Run.
func (s *SoV) AttachTracer(tr *Tracer) { s.tracer = tr }

// TraceSummary re-analyzes an archived trace: the offline half of the
// fleet telemetry loop.
type TraceSummary struct {
	Cycles        int
	TcompMs       stats.Summary
	InFlight      stats.Summary
	DistanceM     float64
	BlockedCycles int
	// MalformedLines counts lines that failed to parse and were skipped —
	// a truncated tail from a crashed run must not hide the rest of the
	// archive. Callers that need strictness can reject summaries with a
	// non-zero count.
	MalformedLines int
}

// SummarizeTrace reads a JSONL trace and recomputes the run's headline
// statistics. Malformed lines are skipped and counted in MalformedLines
// rather than aborting the analysis; an empty trace yields a zero summary
// and no error.
func SummarizeTrace(r io.Reader) (TraceSummary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	tcomp := stats.NewSample()
	inflight := stats.NewSample()
	var out TraceSummary
	var lastX, lastY float64
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			out.MalformedLines++
			continue
		}
		out.Cycles++
		tcomp.Observe(rec.TcompMs)
		inflight.Observe(float64(rec.InFlight))
		if rec.Blocked {
			out.BlockedCycles++
		}
		if !first {
			out.DistanceM += math.Hypot(rec.PosX-lastX, rec.PosY-lastY)
		}
		lastX, lastY = rec.PosX, rec.PosY
		first = false
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	out.TcompMs = tcomp.Summarize()
	out.InFlight = inflight.Summarize()
	return out, nil
}

// recordTrace is called from the plan stage when a tracer is attached. It
// reads only frame snapshots.
func (s *SoV) recordTrace(fr *cycleFrame) {
	if s.tracer == nil {
		return
	}
	s.tracer.Record(TraceRecord{
		Cycle:          fr.cycle,
		TimeMs:         fr.t0.Seconds() * 1000,
		PosX:           fr.st.Pos.X,
		PosY:           fr.st.Pos.Y,
		Speed:          fr.st.Speed,
		SensingMs:      ms(fr.d.Sensing),
		PerceptionMs:   ms(fr.d.Perception),
		PlanningMs:     ms(fr.d.Planning),
		TcompMs:        ms(fr.d.Tcomp),
		Complexity:     fr.complexity,
		Objects:        fr.objects,
		Blocked:        fr.blocked,
		ReactiveActive: fr.overrideActive,
		InFlight:       fr.inflight,
	})
}
