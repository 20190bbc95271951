package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.NumCPU() {
		t.Fatalf("Workers() = %d, want NumCPU %d", Workers(), runtime.NumCPU())
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w, func() {
			const n = 1237
			counts := make([]int32, n)
			For(n, 16, func(start, end int) {
				for i := start; i < end; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
				}
			}
		})
	}
}

func TestForRowsDisjointWrites(t *testing.T) {
	withWorkers(t, 8, func() {
		const h, wdt = 64, 32
		out := make([]int, h*wdt)
		ForRows(h, func(y0, y1 int) {
			for y := y0; y < y1; y++ {
				for x := 0; x < wdt; x++ {
					out[y*wdt+x] = y*wdt + x
				}
			}
		})
		for i, v := range out {
			if v != i {
				t.Fatalf("out[%d] = %d", i, v)
			}
		}
	})
}

// TestForTiledDecompositionIsWorkerIndependent is the determinism linchpin:
// the tile boundaries seen by reduction kernels must not move with the
// worker count.
func TestForTiledDecompositionIsWorkerIndependent(t *testing.T) {
	const n, grain = 1000, 96
	gather := func(workers int) [][2]int {
		var out [][2]int
		withWorkers(t, workers, func() {
			out = make([][2]int, Tiles(n, grain))
			ForTiled(n, grain, func(tile, start, end int) {
				out[tile] = [2]int{start, end}
			})
		})
		return out
	}
	a, b := gather(1), gather(8)
	if len(a) != len(b) {
		t.Fatalf("tile counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tile %d bounds differ: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOrderedTileReductionIsDeterministic(t *testing.T) {
	const n, grain = 4096, 128
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
	}
	sum := func(workers int) float64 {
		var s float64
		withWorkers(t, workers, func() {
			partial := make([]float64, Tiles(n, grain))
			ForTiled(n, grain, func(tile, start, end int) {
				var p float64
				for i := start; i < end; i++ {
					p += xs[i]
				}
				partial[tile] = p
			})
			for _, p := range partial {
				s += p
			}
		})
		return s
	}
	if a, b := sum(1), sum(8); a != b {
		t.Fatalf("ordered reduction differs: %v vs %v", a, b)
	}
}

func TestDoRunsAll(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			var a, b, c int32
			Do(
				func() { atomic.AddInt32(&a, 1) },
				func() { atomic.AddInt32(&b, 1) },
				func() { atomic.AddInt32(&c, 1) },
			)
			if a != 1 || b != 1 || c != 1 {
				t.Fatalf("workers=%d: Do ran (%d,%d,%d)", w, a, b, c)
			}
		})
	}
}

// TestNestedForDoesNotDeadlock exercises parallel-inside-parallel: a
// fan-out issued from a running body runs inline on its caller — For,
// ForTiled and Do alike — so the body sees one worker, and SetWorkers still
// reports the configured count.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 8, func() {
		var total, tiled, done, serial, configured int64
		For(16, 1, func(s, e int) {
			if Workers() == 1 {
				atomic.AddInt64(&serial, 1)
			}
			if prev := SetWorkers(8); prev == 8 {
				atomic.AddInt64(&configured, 1)
			}
			For(64, 4, func(s2, e2 int) {
				atomic.AddInt64(&total, int64(e2-s2))
			})
			ForTiled(64, 4, func(_, s2, e2 int) {
				atomic.AddInt64(&tiled, int64(e2-s2))
			})
			Do(func() { atomic.AddInt64(&done, 1) }, func() { atomic.AddInt64(&done, 1) })
		})
		if total != 16*64 || tiled != 16*64 || done != 16*2 {
			t.Fatalf("nested totals = %d %d %d, want %d %d %d", total, tiled, done, 16*64, 16*64, 16*2)
		}
		if serial != 16 || configured != 16 {
			t.Fatalf("inside a body: Workers()==1 in %d of 16 tiles, SetWorkers returned the configured count in %d", serial, configured)
		}
		if Workers() != 8 {
			t.Fatalf("Workers() = %d after the fan-out returned, want 8", Workers())
		}
	})
}

func TestEmptyAndDegenerate(t *testing.T) {
	For(0, 4, func(int, int) { t.Fatal("fn called for n=0") })
	ForTiled(-3, 4, func(int, int, int) { t.Fatal("fn called for n<0") })
	Do()
	if Tiles(0, 8) != 0 || Tiles(9, 4) != 3 || Tiles(8, 0) != 8 {
		t.Fatalf("Tiles miscounted: %d %d %d", Tiles(0, 8), Tiles(9, 4), Tiles(8, 0))
	}
}

func BenchmarkForOverhead(b *testing.B) {
	prev := SetWorkers(runtime.NumCPU())
	defer SetWorkers(prev)
	out := make([]float64, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(len(out), 1024, func(s, e int) {
			for j := s; j < e; j++ {
				out[j] = float64(j) * 1.5
			}
		})
	}
}
