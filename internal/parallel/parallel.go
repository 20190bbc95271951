// Package parallel is the multi-core compute substrate for the perception
// kernels: tiled parallel-for helpers. Each fan-out starts its own helper
// goroutines (at most Workers()-1) and none of them does work for it after
// it returns; there is no pool and no queue. The package holds no scratch
// buffers: a kernel that needs per-tile scratch owns it, indexed by tile.
//
// Determinism contract (the hard requirement of the calibrated figures):
// every helper here must produce byte-identical results for any worker
// count. The rules callers follow are
//
//  1. For/ForRows bodies may write only to locations owned by their index
//     range, and each element's value may depend only on inputs — never on
//     other tiles or on visitation order;
//  2. reductions go through ForTiled, whose tile decomposition depends only
//     on (n, grain) — never on the worker count — so per-tile partials are
//     identical however many workers run, and the caller combines them in
//     tile order;
//  3. commutative-exact merges (integer counters) may combine in any order.
//
// There is no data-dependent floating-point reassociation anywhere: a
// kernel either computes each output element with the same serial
// instruction stream as before, or reduces tile partials in a fixed order.
package parallel

import (
	"runtime"
	"sync/atomic"
)

// configured holds the SetWorkers override; 0 means runtime.NumCPU().
var configured atomic.Int64

// inFlight counts fan-outs currently inside run. While it is non-zero that
// fan-out's helpers are already the unit of parallelism, so every further
// fan-out — one issued from a running body, or from another goroutine
// beside it — takes its caller's serial branch: no closure, no goroutine,
// no allocation. Go has no goroutine-local state, so the marker is
// process-wide; outputs are byte-identical for any worker count, which
// makes going serial always a legal schedule.
var inFlight atomic.Int32

// Workers returns the parallelism a fan-out issued now would get: 1 while
// another fan-out is in flight (see inFlight), else the configured count.
// Kernels guard their allocation-free serial branch with Workers() <= 1.
func Workers() int {
	if inFlight.Load() > 0 {
		return 1
	}
	return configuredWorkers()
}

// configuredWorkers is the SetWorkers override when set, else
// runtime.NumCPU().
func configuredWorkers() int {
	if n := configured.Load(); n > 0 {
		return int(n)
	}
	return runtime.NumCPU()
}

// SetWorkers overrides the worker count (n <= 0 resets to runtime.NumCPU)
// and returns the previously configured count. Outputs are byte-identical
// for any setting; only wall-clock time changes.
func SetWorkers(n int) int {
	prev := configuredWorkers()
	if n <= 0 {
		n = 0
	}
	configured.Store(int64(n))
	return prev
}

// run executes task(0..count-1), each exactly once, on the calling
// goroutine and up to `helpers` goroutines started for this fan-out alone.
// Every participant claims tiles from one atomic counter; the caller then
// yields until the last claimed tile completes. A helper scheduled after
// that point finds the counter exhausted and exits without calling task.
// The in-flight marker is held throughout, so fan-outs issued from task
// bodies run inline.
func run(count, helpers int, task func(i int)) {
	inFlight.Add(1)
	defer inFlight.Add(-1)
	var claimed, completed atomic.Int64
	loop := func() {
		for {
			i := claimed.Add(1) - 1
			if i >= int64(count) {
				return
			}
			task(int(i))
			completed.Add(1)
		}
	}
	for h := min(helpers, count-1); h > 0; h-- {
		go loop()
	}
	loop()
	for completed.Load() < int64(count) {
		runtime.Gosched()
	}
}

// Tiles returns the tile count For/ForTiled use for n elements at the given
// grain. It depends only on (n, grain) — never on the worker count.
func Tiles(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// For runs fn over [0, n) split into contiguous tiles of at most grain
// elements. fn must satisfy rule 1 of the package determinism contract:
// disjoint writes, element values independent of tiling. With one worker
// (or one tile) fn is invoked once as fn(0, n).
func For(n, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	tiles := Tiles(n, grain)
	w := Workers()
	if w <= 1 || tiles <= 1 {
		fn(0, n)
		return
	}
	run(tiles, w-1, func(t int) {
		start := t * grain
		end := start + grain
		if end > n {
			end = n
		}
		fn(start, end)
	})
}

// ForRows runs fn over the row range [0, h) one row per tile — the common
// decomposition for image kernels, where a row is already a substantial
// unit of work.
func ForRows(h int, fn func(y0, y1 int)) { For(h, 1, fn) }

// ForTiled runs fn(tile, start, end) over the fixed decomposition reported
// by Tiles(n, grain). Unlike For, the serial path also iterates per tile,
// so per-tile partial results (rule 2) are identical for any worker count
// and can be reduced in tile order by the caller.
func ForTiled(n, grain int, fn func(tile, start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	tiles := Tiles(n, grain)
	body := func(t int) {
		start := t * grain
		end := start + grain
		if end > n {
			end = n
		}
		fn(t, start, end)
	}
	w := Workers()
	if w <= 1 || tiles <= 1 {
		for t := 0; t < tiles; t++ {
			body(t)
		}
		return
	}
	run(tiles, w-1, body)
}

// Do runs the given functions, possibly concurrently, and returns when all
// have completed. The functions must be mutually independent; with one
// worker they run serially in argument order, so independence is also what
// makes the serial and parallel schedules indistinguishable.
func Do(fs ...func()) {
	if len(fs) == 0 {
		return
	}
	w := Workers()
	if w <= 1 || len(fs) == 1 {
		for _, f := range fs {
			f()
		}
		return
	}
	if w > len(fs) {
		w = len(fs)
	}
	run(len(fs), w-1, func(i int) { fs[i]() })
}
