package fleet

import (
	"io"
	"strconv"

	"sov/internal/obs"
	"sov/internal/telemetry"
)

// traceWriter emits one JSONL record per epoch. The record is a pure
// function of the epoch's fold and log, so trace bytes are identical for
// any -workers count — the determinism tests diff them directly.
type traceWriter struct {
	w   io.Writer
	obj obs.JSONObj
}

func newTraceWriter(w io.Writer) *traceWriter {
	return &traceWriter{w: w, obj: obs.JSONObj{B: make([]byte, 0, 1024)}}
}

// record writes the epoch line from the fold s, the epoch's completed
// trips and its log, whose assignments are the epoch's complete dispatch
// decisions — the replay test re-derives them from the seed and compares.
func (t *traceWriter) record(s *Summary, completed int, log []transition) {
	o := t.obj.Reset().
		Int("epoch", int64(s.Epochs)).
		Int("t_ms", s.VirtualTime.Milliseconds()).
		Int("arrived", s.RidersArrived)
	o.Key("assignments")
	o.B = append(o.B, '[')
	for _, a := range log {
		if a.kind != telemetry.KindAssign {
			continue
		}
		if o.B[len(o.B)-1] == ']' { // a pair precedes this one
			o.B = append(o.B, ',')
		}
		o.B = append(o.B, '[')
		o.B = strconv.AppendInt(o.B, a.rider, 10)
		o.B = append(o.B, ',')
		o.B = strconv.AppendInt(o.B, int64(a.vehicle), 10)
		o.B = append(o.B, ']')
	}
	o.B = append(o.B, ']')
	o.Int("completed", int64(completed)).
		Int("trips", s.TripsCompleted).
		Int("waiting", int64(s.WaitingNow)).
		Int("idle", int64(s.Idle)).
		Int("busy", int64(s.Busy)).
		Int("charging", int64(s.Charging)).
		Int("halted", int64(s.Halted)).
		Int("cycles", s.Cycles).
		Int("collisions", int64(s.Collisions)).
		Fixed("dist_m", s.DistanceM, 3).
		Fixed("soc", s.MeanSoC, 3)
	o.B = append(o.Close(), '\n')
	t.w.Write(o.B)
}
