package parallel

import (
	"math/bits"
	"sync"
)

// Scratch-buffer pools. Hot kernels (stereo cost vectors, FFT column
// gathers, KCF spectra, ICP reuse counters) borrow
// per-tile scratch here instead of allocating per call. Buffers are
// size-classed by power of two; Get returns a slice of the requested
// length whose contents are unspecified — callers must overwrite before
// reading (or use the Zeroed variants).
//
// Cross-vehicle sharing (fleet audit, DESIGN.md §11). These pools are
// process-global: in a fleet run every vehicle's kernels draw from the
// same free lists, concurrently. That is safe under one ownership rule —
// between Get and the matching Put a buffer has exactly one owner, and
// Put surrenders it: the caller must hold no alias past Put (no stashing
// a sub-slice in longer-lived state). Every repo call site follows the
// paired get/defer-put or get/use/put-in-same-frame shape; nothing
// retains pooled memory across a frame boundary. The floor-class rule in
// Put (a non-power-of-two cap files under the next class down) can only
// shrink the capacity a future Get sees, never splice two live buffers
// together, so aliasing can arise from a double Put alone — which the
// ownership rule forbids. TestPoolNoCrossOwnerAliasing churns the pools
// from many goroutines with per-owner tags (and the fleet's 64-vehicle
// -race test exercises the same property end to end through the full
// perception stack).

const poolClasses = 31

// sizeClass is the class a request for n elements is served from: the
// smallest power of two that holds n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// floorClass is the class a returned buffer of capacity c (> 0) files
// under: the largest power of two it can fully satisfy, so a capacity that
// is not a power of two lands one class down and a future Get never
// receives a slice shorter than it asked for.
func floorClass(c int) int { return bits.Len(uint(c)) - 1 }

// newClassSlice is the pool-miss path of both pool kinds: a fresh slice of
// length n with the whole of class c as its capacity.
func newClassSlice[T any](n, c int) []T {
	//sovlint:ignore hotalloc pool-miss slow path; amortized away once the size class is warm
	return make([]T, n, 1<<c)
}

// classPool is one element type's set of sync.Pool size classes; the
// typed Get*/Put* functions below are its only callers.
type classPool[T any] struct{ classes [poolClasses]sync.Pool }

// get returns a slice of length n (contents unspecified, capacity the
// enclosing power of two on a miss).
func (p *classPool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if v := p.classes[c].Get(); v != nil {
		return (*(v.(*[]T)))[:n]
	}
	return newClassSlice[T](n, c)
}

// put files s under its size class for reuse.
func (p *classPool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	c := floorClass(cap(s))
	full := s[:cap(s)]
	//sovlint:ignore hotalloc sync.Pool boxing of the slice header; bytes are recycled, header churn is accepted
	p.classes[c].Put(&full)
}

var (
	f64pool  classPool[float64]
	c128pool classPool[complex128]
	i32pool  classPool[int32]
	u64pool  classPool[uint64]
	intpool  classPool[int]
)

// GetF64 returns a float64 scratch slice of length n (contents unspecified).
func GetF64(n int) []float64 { return f64pool.get(n) }

// PutF64 returns a slice obtained from GetF64 to its pool.
func PutF64(s []float64) { f64pool.put(s) }

// GetC128 returns a complex128 scratch slice of length n (contents
// unspecified).
func GetC128(n int) []complex128 { return c128pool.get(n) }

// PutC128 returns a slice obtained from GetC128 to its pool.
func PutC128(s []complex128) { c128pool.put(s) }

// GetI32 returns an int32 scratch slice of length n (contents unspecified) —
// the cost vectors of the fixed-point stereo kernels.
func GetI32(n int) []int32 { return i32pool.get(n) }

// PutI32 returns a slice obtained from GetI32 to its pool.
func PutI32(s []int32) { i32pool.put(s) }

// GetU64 returns a uint64 scratch slice of length n (contents unspecified) —
// the packed SWAR lane words of the second-generation int8 kernels.
func GetU64(n int) []uint64 { return u64pool.get(n) }

// PutU64 returns a slice obtained from GetU64 to its pool.
func PutU64(s []uint64) { u64pool.put(s) }

// GetIntsZeroed returns an int scratch slice of length n with every element
// zero — the per-tile counter accumulators (e.g. kd-tree reuse counts).
func GetIntsZeroed(n int) []int {
	s := intpool.get(n)
	clear(s)
	return s
}

// PutInts returns a slice obtained from GetIntsZeroed to its pool.
func PutInts(s []int) { intpool.put(s) }

// SlicePool is a size-classed free list for frame-rate scratch slices (NN
// activation tensors, ICP correspondence buffers, fused-object lists). The
// sync.Pool-backed Get*/Put* helpers above are the right tool for per-tile
// scratch inside a parallel kernel — contention-free, GC-aware — but their
// Put boxes the slice header, costing one small allocation per call. A
// SlicePool trades a mutex for a true zero-allocation steady state: Get pops
// a free slice and Put pushes it back with no boxing, so a control loop that
// borrows a few buffers per frame allocates nothing once warm. Returned
// slices have the requested length and unspecified contents.
type SlicePool[T any] struct {
	mu      sync.Mutex
	classes [poolClasses][][]T
}

// Get returns a slice of length n (contents unspecified, capacity the
// enclosing power of two).
func (p *SlicePool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	var s []T
	p.mu.Lock()
	if free := p.classes[c]; len(free) > 0 {
		s = free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
	}
	p.mu.Unlock()
	if s == nil {
		return newClassSlice[T](n, c)
	}
	return s[:n]
}

// Put returns a slice obtained from Get to its size class for reuse.
func (p *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	c := floorClass(cap(s))
	p.mu.Lock()
	p.classes[c] = append(p.classes[c], s[:cap(s)])
	p.mu.Unlock()
}
