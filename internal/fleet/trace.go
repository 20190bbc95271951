package fleet

import (
	"io"
	"strconv"

	"sov/internal/telemetry"
)

// jsonObj builds one flat JSON object in a reused buffer. It is hand-rolled
// over strconv.Append*: fmt would box every argument into an interface (one
// alloc each), which would blow the substrate's zero-steady-state-alloc
// budget at thousands of epochs. The methods chain.
type jsonObj struct{ b []byte }

// reset starts a new object, keeping the buffer's capacity.
func (j *jsonObj) reset() *jsonObj {
	j.b = append(j.b[:0], '{')
	return j
}

func (j *jsonObj) key(k string) {
	if len(j.b) > 1 {
		j.b = append(j.b, ',')
	}
	j.b = append(j.b, '"')
	j.b = append(j.b, k...)
	j.b = append(j.b, '"', ':')
}

func (j *jsonObj) int(k string, v int64) *jsonObj {
	j.key(k)
	j.b = strconv.AppendInt(j.b, v, 10)
	return j
}

// float writes v with prec decimals.
func (j *jsonObj) float(k string, v float64, prec int) *jsonObj {
	j.key(k)
	j.b = strconv.AppendFloat(j.b, v, 'f', prec, 64)
	return j
}

func (j *jsonObj) str(k, v string) *jsonObj {
	j.key(k)
	j.b = append(j.b, '"')
	j.b = append(j.b, v...)
	j.b = append(j.b, '"')
	return j
}

// close ends the object and returns its bytes, valid until the next reset.
func (j *jsonObj) close() []byte {
	j.b = append(j.b, '}')
	return j.b
}

// traceWriter emits one JSONL record per epoch. The record is a pure
// function of the epoch's fold and log, so trace bytes are identical for
// any -workers count — the determinism tests diff them directly.
type traceWriter struct {
	w   io.Writer
	obj jsonObj
}

func newTraceWriter(w io.Writer) *traceWriter {
	return &traceWriter{w: w, obj: jsonObj{b: make([]byte, 0, 1024)}}
}

// record writes the epoch line from the fold s, the epoch's completed
// trips and its log, whose assignments are the epoch's complete dispatch
// decisions — the replay test re-derives them from the seed and compares.
func (t *traceWriter) record(s *Summary, completed int, log []transition) {
	o := t.obj.reset().
		int("epoch", int64(s.Epochs)).
		int("t_ms", s.VirtualTime.Milliseconds()).
		int("arrived", s.RidersArrived)
	o.key("assignments")
	o.b = append(o.b, '[')
	for _, a := range log {
		if a.kind != telemetry.KindAssign {
			continue
		}
		if o.b[len(o.b)-1] == ']' { // a pair precedes this one
			o.b = append(o.b, ',')
		}
		o.b = append(o.b, '[')
		o.b = strconv.AppendInt(o.b, a.rider, 10)
		o.b = append(o.b, ',')
		o.b = strconv.AppendInt(o.b, int64(a.vehicle), 10)
		o.b = append(o.b, ']')
	}
	o.b = append(o.b, ']')
	o.int("completed", int64(completed)).
		int("trips", s.TripsCompleted).
		int("waiting", int64(s.WaitingNow)).
		int("idle", int64(s.Idle)).
		int("busy", int64(s.Busy)).
		int("charging", int64(s.Charging)).
		int("halted", int64(s.Halted)).
		int("cycles", s.Cycles).
		int("collisions", int64(s.Collisions)).
		float("dist_m", s.DistanceM, 3).
		float("soc", s.MeanSoC, 3)
	o.b = append(o.close(), '\n')
	t.w.Write(o.b)
}
