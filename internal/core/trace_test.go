package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTracerRecordsEveryCycle(t *testing.T) {
	var buf bytes.Buffer
	s := New(DefaultConfig(), CruiseScenario(3))
	tr := NewTracer(&buf)
	s.AttachTracer(tr)
	rep := s.Run(20 * time.Second)
	n, err := tr.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != rep.Cycles {
		t.Fatalf("trace records = %d, cycles = %d", n, rep.Cycles)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != n {
		t.Fatalf("lines = %d, records = %d", lines, n)
	}
}

func TestTraceSummaryMatchesReport(t *testing.T) {
	var buf bytes.Buffer
	s := New(DefaultConfig(), CruiseScenario(3))
	tr := NewTracer(&buf)
	s.AttachTracer(tr)
	rep := s.Run(30 * time.Second)
	if _, err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := SummarizeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cycles != rep.Cycles {
		t.Fatalf("cycles %d vs %d", sum.Cycles, rep.Cycles)
	}
	// Offline re-analysis reproduces the live statistics.
	if math.Abs(sum.TcompMs.Mean-rep.Tcomp.Mean()) > 0.01 {
		t.Fatalf("trace mean %.2f vs live %.2f", sum.TcompMs.Mean, rep.Tcomp.Mean())
	}
	// Distance from cycle positions approximates the odometer (cycle
	// sampling misses sub-cycle curvature, so allow slack).
	if math.Abs(sum.DistanceM-rep.DistanceM) > rep.DistanceM*0.05 {
		t.Fatalf("trace distance %.1f vs odometer %.1f", sum.DistanceM, rep.DistanceM)
	}
}

func TestSummarizeTraceSkipsGarbage(t *testing.T) {
	// Malformed lines are skipped and counted: a truncated tail from a
	// crashed run must not hide the rest of the archive.
	in := `{"cycle":1,"t_ms":0,"x":0,"y":0,"tcomp_ms":150,"inflight":1}
not json
{"cycle":2,"t_ms":100,"x":1,"y":0,"tcomp_ms":170,"inflight":2,"blocked":true}
{"cycle":3,"t_ms":200,"x":2,"y":0,"tcomp_ms":160,"inf` // truncated mid-record
	sum, err := SummarizeTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cycles != 2 || sum.MalformedLines != 2 {
		t.Fatalf("cycles=%d malformed=%d, want 2 and 2", sum.Cycles, sum.MalformedLines)
	}
	if sum.BlockedCycles != 1 {
		t.Fatalf("blocked=%d, want 1", sum.BlockedCycles)
	}
	if math.Abs(sum.TcompMs.Mean-160) > 1e-9 {
		t.Fatalf("Tcomp mean %.1f, want 160", sum.TcompMs.Mean)
	}
	if math.Abs(sum.DistanceM-1) > 1e-9 {
		t.Fatalf("distance %.2f, want 1", sum.DistanceM)
	}

	// Empty trace yields a zero summary, no error.
	sum, err = SummarizeTrace(strings.NewReader(""))
	if err != nil || sum.Cycles != 0 || sum.MalformedLines != 0 {
		t.Fatalf("empty trace: %+v err=%v", sum, err)
	}
}

// FuzzTraceLineMatchesJSON holds Tracer.Record to the encoding/json bytes
// of the same TraceRecord: the line is json.Marshal's output plus a
// newline, or both fail (a NaN or ±Inf field) and the tracer writes
// nothing. The seeds walk ±0, NaN, ±Inf, subnormals, each side of the
// 1e-6 and 1e21 exponent cut-offs, negative ints and each omitempty bool.
func FuzzTraceLineMatchesJSON(f *testing.F) {
	seed := func(v float64, n int, blocked, reactive bool) {
		// v in every float field, and once more after a plain prefix, so a
		// bad value late in the line must discard what precedes it.
		f.Add(n, v, v, v, v, v, v, v, v, v, n, blocked, reactive, n)
		f.Add(n, 100.0, 1.5, -2.25, 3.0, 84.0, 71.0, 3.0, 158.0, v, -n, reactive, blocked, n+1)
	}
	below := func(x float64) float64 { return math.Nextafter(x, 0) }
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
		1e-6, below(1e-6), -1e-6, -below(1e-6), 1e-7, 1.5e-10, 1e-100,
		1e21, below(1e21), -1e21, -below(1e21), 1e22, 1.7976931348623157e308,
		0.1, 123456.789, 1e20, 164.25000000000003} {
		seed(v, 0, false, false)
	}
	seed(1, -7, true, false)
	seed(1, math.MinInt64, false, true)
	seed(-0.5, math.MaxInt64, true, true)

	f.Fuzz(func(t *testing.T, cycle int, tms, x, y, v, sensing, perception, planning, tcomp, complexity float64,
		objects int, blocked, reactive bool, inflight int) {
		r := TraceRecord{Cycle: cycle, TimeMs: tms, PosX: x, PosY: y, Speed: v, SensingMs: sensing,
			PerceptionMs: perception, PlanningMs: planning, TcompMs: tcomp, Complexity: complexity,
			Objects: objects, Blocked: blocked, ReactiveActive: reactive, InFlight: inflight}
		want, wantErr := json.Marshal(r)
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		tr.Record(r)
		n, err := tr.Close()
		if wantErr != nil {
			if err == nil || n != 0 || buf.Len() != 0 {
				t.Fatalf("json.Marshal fails (%v) but the tracer wrote %d records, %q, err %v", wantErr, n, buf.Bytes(), err)
			}
			return
		}
		if err != nil || n != 1 {
			t.Fatalf("tracer: %d records, err %v; json.Marshal: %s", n, err, want)
		}
		if got := buf.String(); got != string(want)+"\n" {
			t.Fatalf("tracer line\n%s\njson.Marshal\n%s", got, want)
		}
	})
}

// TestTracerStopsAtItsFirstError: after a record json.Marshal would refuse,
// the tracer keeps its first error and writes no later record.
func TestTracerStopsAtItsFirstError(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Record(TraceRecord{Cycle: 1})
	tr.Record(TraceRecord{Cycle: 2, TcompMs: math.NaN()})
	tr.Record(TraceRecord{Cycle: 3})
	n, err := tr.Close()
	if err == nil || !strings.Contains(err.Error(), "tcomp_ms") || n != 1 {
		t.Fatalf("Close = %d, %v; want 1 record and an error naming tcomp_ms", n, err)
	}
	if want := "{\"cycle\":1,\"t_ms\":0,\"x\":0,\"y\":0,\"v\":0,\"sensing_ms\":0,\"perception_ms\":0,\"planning_ms\":0,\"tcomp_ms\":0,\"complexity\":0,\"objects\":0,\"inflight\":0}\n"; buf.String() != want {
		t.Fatalf("trace = %q, want %q", buf.String(), want)
	}
}
