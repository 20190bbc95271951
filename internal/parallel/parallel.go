// Package parallel is the multi-core compute substrate for the perception
// kernels: a shared worker pool sized from runtime.NumCPU and tiled
// parallel-for helpers. It holds no scratch buffers: a kernel that needs
// per-tile scratch owns it, indexed by tile.
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

// inFlight counts fan-outs currently inside run. While it is non-zero the
// pool is already the unit of parallelism, so every further fan-out — one
// issued from a running body, or from another goroutine beside it — takes
// its caller's serial branch: no closure, no queue traffic, no allocation.
// Go has no goroutine-local state, so the marker is process-wide; outputs
// are byte-identical for any worker count, which makes going serial always
// a legal schedule.
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

// tasks is the shared pool's run queue. Helper execution is opportunistic:
// a submitting goroutine never blocks on the queue and always processes
// tiles itself, so a saturated pool (two goroutines fanning out at once)
// degrades to caller-runs-everything instead of deadlocking.
var tasks chan func()

var poolStarted atomic.Bool

func ensurePool() {
	if poolStarted.Load() {
		return
	}
	if !poolStarted.CompareAndSwap(false, true) {
		return
	}
	n := runtime.NumCPU()
	if n < 4 {
		// Keep a few helpers even on small hosts so SetWorkers(n>NumCPU)
		// still interleaves goroutines (TestDeterminism's 8-worker runs
		// rely on it).
		n = 4
	}
	//sovlint:ignore hotalloc one-time pool bring-up behind the CAS; never runs again after the first fan-out
	tasks = make(chan func(), 8*n)
	for i := 0; i < n; i++ {
		//sovlint:ignore hotalloc one-time pool bring-up behind the CAS; never runs again after the first fan-out
		go func() {
			for f := range tasks {
				f()
			}
		}()
	}
}

// run executes task(0..count-1), each exactly once, using up to `helpers`
// pool goroutines plus the calling goroutine. It holds the in-flight marker
// for its whole duration, so fan-outs issued from task bodies run inline.
// While waiting for stragglers the caller drains the shared queue, so two
// goroutines that both got past the marker cannot deadlock each other.
func run(count, helpers int, task func(i int)) {
	inFlight.Add(1)
	defer inFlight.Add(-1)
	var claimed, completed int64
	if helpers > count-1 {
		helpers = count - 1
	}
	if helpers > 0 {
		ensurePool()
		//sovlint:ignore hotalloc one work-stealing loop closure per fan-out; the cost is the contract of going parallel at all
		loop := func() {
			for {
				i := atomic.AddInt64(&claimed, 1) - 1
				if i >= int64(count) {
					return
				}
				task(int(i))
				atomic.AddInt64(&completed, 1)
			}
		}
	submit:
		for i := 0; i < helpers; i++ {
			select {
			case tasks <- loop:
			default:
				break submit // pool saturated: caller handles the rest
			}
		}
	}
	// The caller claims tiles inline until the queue is exhausted (same
	// claim protocol as the pool loop).
	for {
		i := atomic.AddInt64(&claimed, 1) - 1
		if i >= int64(count) {
			break
		}
		task(int(i))
		atomic.AddInt64(&completed, 1)
	}
	for atomic.LoadInt64(&completed) < int64(count) {
		// Help with whatever is queued instead of blocking a pool slot.
		select {
		case f := <-tasks:
			f()
		default:
			runtime.Gosched()
		}
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
	//sovlint:ignore hotalloc one tile-mapping closure per fan-out; the cost is the contract of going parallel at all
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
