package core

import (
	"bufio"
	"encoding/json"
	"io"
	"math"

	"sov/internal/obs"
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

// Tracer serializes trace records to a writer, one JSON line each, in the
// bytes encoding/json writes for a TraceRecord.
type Tracer struct {
	w   *bufio.Writer
	obj obs.JSONObj // the line being built, reused across records
	n   int
	err error
}

// NewTracer wraps a writer.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriter(w), obj: obs.JSONObj{B: make([]byte, 0, 512)}}
}

// Record appends one line. A NaN or ±Inf field writes nothing and becomes
// the tracer's first error, as json.Marshal refuses it.
func (t *Tracer) Record(r TraceRecord) {
	if t.err != nil {
		return
	}
	o := t.obj.Reset().
		Int("cycle", int64(r.Cycle)).
		Float("t_ms", r.TimeMs).
		Float("x", r.PosX).
		Float("y", r.PosY).
		Float("v", r.Speed).
		Float("sensing_ms", r.SensingMs).
		Float("perception_ms", r.PerceptionMs).
		Float("planning_ms", r.PlanningMs).
		Float("tcomp_ms", r.TcompMs).
		Float("complexity", r.Complexity).
		Int("objects", int64(r.Objects))
	if r.Blocked {
		o.Bool("blocked", true)
	}
	if r.ReactiveActive {
		o.Bool("reactive", true)
	}
	o.Int("inflight", int64(r.InFlight))
	if o.Err != nil {
		t.err = o.Err
		return
	}
	o.B = append(o.Close(), '\n') // kept, so a grown buffer is reused
	if _, err := t.w.Write(o.B); err != nil {
		t.err = err
		return
	}
	t.n++
}

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

// record writes one finished cycle from frame snapshots; a nil tracer
// records nothing. recordCycle calls it: the line is appended into the
// tracer's reused buffer, so it allocates nothing once warm.
func (t *Tracer) record(fr *cycleFrame) {
	if t == nil {
		return
	}
	t.Record(TraceRecord{
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
