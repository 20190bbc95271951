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
// writer, flight recorder — is attached, so the gate also covers the obs
// record paths. With sched set, the online heterogeneous scheduler runs in
// the loop, so the gate covers its per-cycle BeginCycle/Observe path too.
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
// (counters, histogram bins, buffered spans, the flight-recorder ring) must
// add ~0 allocs/cycle. The sched rows hold the online scheduler to it as
// well: BeginCycle/Observe/decide work entirely in preallocated candidate
// tables. Every row runs on the float and on the int8 operating points.
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
