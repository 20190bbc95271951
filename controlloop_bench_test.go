// Control-loop wall-clock throughput (ROADMAP's pprof target) and the
// steady-state allocation contract. The CI bench-smoke step runs
// TestControlLoopSteadyStateAllocs as the regression gate; the committed
// control-loop number is the cruise workload of `go run ./benchmark`.
package sov

import (
	"io"
	"runtime"
	"testing"
	"time"

	"sov/internal/core"
	"sov/internal/obs"
	"sov/internal/parallel"
	"sov/internal/stats"
)

// BenchmarkControlLoopThroughput runs one 60 s characterization cruise per
// op (~10 control cycles per virtual second), so per-cycle figures are ns/op
// and allocs/op divided by the cycle count.
func BenchmarkControlLoopThroughput(b *testing.B) {
	var rep *core.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep = core.New(core.DefaultConfig(), core.CruiseScenario(3)).Run(60 * time.Second)
	}
	cycles := float64(rep.Cycles)
	b.ReportMetric(cycles, "cycles/op")
	b.ReportMetric(cycles/b.Elapsed().Seconds()*float64(b.N), "cycles/sec")
	b.ReportMetric(rep.PipelineDepth.Mean(), "inflight_mean")
}

// measureSteadyStateAllocs returns the per-cycle allocation rate of the
// control loop once warm, by differencing two fresh runs of different
// lengths so setup-time allocations (world, detector, pools) cancel out.
// With instrumented set, the full telemetry layer — metrics registry, span
// writer, flight recorder, JSONL tracer — is attached, so the gate also
// covers the obs record paths. With sched set, the online heterogeneous
// scheduler runs in the loop, so the gate covers its per-cycle
// BeginCycle/Observe path too.
func measureSteadyStateAllocs(quant, instrumented, sched bool) float64 {
	run := func(d time.Duration) (uint64, int) {
		cfg := core.DefaultConfig()
		cfg.Quant = quant
		cfg.Sched = sched
		s := core.New(cfg, core.CruiseScenario(3))
		if instrumented {
			s.AttachMetrics(obs.NewRegistry())
			s.AttachSpans(obs.NewSpanWriter(io.Discard))
			s.AttachFlightRecorder(obs.NewFlightRecorder(io.Discard, 64, 3))
			s.AttachTracer(core.NewTracer(io.Discard))
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep := s.Run(d)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, rep.Cycles
	}
	aShort, cShort := run(10 * time.Second)
	aLong, cLong := run(60 * time.Second)
	return float64(aLong-aShort) / float64(cLong-cShort)
}

// TestControlLoopSteadyStateAllocs is the CI bench-smoke gate for the
// zero-allocation frame-reuse contract: a warm control cycle — capture,
// perceive, plan, delivery scheduling — must stay near zero allocations.
// The seed ran ~25 allocs/cycle; the frame/slot/event recycling brought it
// to 0.15–0.17 (amortized sample growth). The bound of 0.5 keeps that
// headroom and still fails a single allocation once per cycle, anywhere
// down a hot callee chain. The obs rows hold the
// telemetry layer to the same bound: its steady-state record paths
// (counters, histogram bins, buffered spans, the flight-recorder ring, the
// trace line) must add ~0 allocs/cycle. The sched rows hold the online
// scheduler to it as well: BeginCycle/Observe/decide work entirely in
// preallocated candidate tables. Every row runs on the float and on the
// int8 operating points.
//
// Every row runs at one worker and at four: the loop is serial by
// construction (internal/core does not import internal/parallel), so a
// configured worker count must not cost it a single allocation.
func TestControlLoopSteadyStateAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	for _, mode := range []struct {
		name                       string
		quant, instrumented, sched bool
	}{
		{"plain", false, false, false},
		{"obs", false, true, false},
		{"sched", false, false, true},
		{"obs+sched", false, true, true},
		{"quant", true, false, false},
		{"quant+obs", true, true, false},
		{"quant+sched", true, false, true},
		{"quant+obs+sched", true, true, true},
	} {
		for _, workers := range []int{1, 4} {
			parallel.SetWorkers(workers)
			if got := measureSteadyStateAllocs(mode.quant, mode.instrumented, mode.sched); got >= 0.5 {
				t.Errorf("%s control loop at %d workers allocates %.2f allocs/cycle in steady state, want < 0.5",
					mode.name, workers, got)
			}
		}
	}
}

// allocatedBytes returns the bytes the heap allocated while f ran.
func allocatedBytes(f func()) uint64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestRecordPathAllocatesItsOutputOnce holds the three per-cycle recorders
// to allocating what they keep, once: a span writer at most 32 B per span
// (24 B buffered in blocks, Close's sort scratch and output chunk
// included), a sample at most 3 × 8 B per value (its buffer doubles), and
// the tracer nothing after its first record.
func TestRecordPathAllocatesItsOutputOnce(t *testing.T) {
	const spans = 100_000
	perSpan := float64(allocatedBytes(func() {
		sw := obs.NewSpanWriter(io.Discard)
		for i := 0; i < spans; i++ {
			// Ten lanes as the control loop fills them; lane 9's start
			// follows a varying latency, so Close sorts it.
			c := i / 10
			t0 := time.Duration(c) * 100 * time.Millisecond
			if lane := i % 10; lane == 9 {
				t0 += time.Duration(c%7) * 40 * time.Millisecond
			}
			sw.Span(obs.PIDVirtual, 1+i%10, "stage", "parent", c, t0, time.Millisecond)
		}
		if _, err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	})) / spans
	t.Logf("SpanWriter: %.1f B per span", perSpan)
	if perSpan > 32 {
		t.Errorf("SpanWriter allocates %.1f B per span over %d spans, want ≤ 32", perSpan, spans)
	}

	const values = 100_000
	perValue := float64(allocatedBytes(func() {
		s := stats.NewSample()
		for i := 0; i < values; i++ {
			s.Observe(float64(i % 977))
		}
	})) / values
	t.Logf("Sample: %.1f B per value", perValue)
	if perValue > 3*8 {
		t.Errorf("Sample allocates %.1f B per value over %d values, want ≤ 24", perValue, values)
	}

	tr := core.NewTracer(io.Discard)
	rec := core.TraceRecord{Cycle: 1, TimeMs: 100, PosX: 12.5, PosY: -0.25, Speed: 3.1, SensingMs: 84.2,
		PerceptionMs: 71.9, PlanningMs: 3.3, TcompMs: 164.125, Complexity: 0.6, Objects: 4, Blocked: true, InFlight: 2}
	tr.Record(rec)
	if allocs := testing.AllocsPerRun(10_000, func() { rec.Cycle++; tr.Record(rec) }); allocs != 0 {
		t.Errorf("Tracer.Record allocates %.2f times per record once warm, want 0", allocs)
	}
	if _, err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
