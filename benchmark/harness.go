package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"
)

// params fixes the inputs of one run: everything a workload generates comes
// from seed, scale shrinks every workload's slice by one common factor
// (1 for measured runs, 1/50 for -smoke), and workers is W = min(nproc, 4).
type params struct {
	seed    int64
	scale   float64
	workers int
	tmpRoot string // where workloads create store directories
}

// scaled applies the common scale factor to a slice size, never going
// below min (the smallest size at which every check still runs).
func (p params) scaled(n, min int) int {
	v := int(math.Round(float64(n) * p.scale))
	if v < min {
		v = min
	}
	return v
}

// workload is one of the four closed-loop, single-client workloads. An
// instance is built by setUp, runs fixed-work slices numbered from 0, and is
// released by tearDown. Slice i of a given seed always does the same work,
// whatever ran before it.
type workload interface {
	name() string
	// config returns the effective core/fleet/telemetry configuration, for
	// the result file.
	config() any
	// setUp builds a fresh instance ready for slice 0, releasing any
	// instance a previous setUp built. Its duration is the set-up time; it
	// returns the durations of the constructor calls inside it, in
	// milliseconds, under their per-layer metric names.
	setUp() (map[string]float64, error)
	// slice runs slice i, adding its samples and counts to acc and, when rec
	// is non-nil, recording a span around every call it makes.
	slice(i int, rec *recorder, acc *accum) error
	// digest fingerprints the virtual-time outputs produced since setUp.
	digest() uint64
	// probe runs the workload's layer probes once more, merging what they
	// time into tr. The traced run calls it after every traced pass, so
	// probes and passes are repeated equally often and side by side in time.
	probe(tr *tracedRun) error
	// layers attributes slice 0's time to the workload's layers, filling m
	// with per-layer metrics by name (see trace.go).
	layers(tr *tracedRun, m map[string]float64) error
	// memoryBound says the slice's work time is allocator and collector work
	// more than arithmetic, so the memory reference kernel calibrates it.
	memoryBound() bool
	tearDown()
}

// sliceStat is what one slice measured.
type sliceStat struct {
	work    float64       // units of work done (cycles, vehicle-seconds, events)
	busy    time.Duration // time that work took: the denominator of work_per_s (the whole slice if left zero)
	allocMB float64       // TotalAlloc growth over the slice (filled by the runner unless the slice counts it itself)
	mallocs uint64        // heap allocations of the timed calls, where the slice counts them itself
	// partsUS are the operations whose durations add up to busy, in order:
	// every control period, every epoch, every ingest batch. The traced run
	// compares repetitions of slice 0 position by position with them.
	partsUS []float64
}

// accum pools what the slices of one pass measured.
type accum struct {
	opUS     []float64            // latency of the workload's primary operation, pooled
	series   map[string][]float64 // other pooled samples, by name
	counts   map[string]float64   // summed counters, by name
	slices   []sliceStat
	ops      int64
	failed   int64
	failures map[string]int64 // failed checks by name
	cur      sliceStat        // the slice in progress; slice() fills work and busy
}

// newAccum returns an accumulator with room for opCap primary-operation
// samples, so a measured pass does not grow (and re-copy) the pool mid-run.
func newAccum(opCap int) *accum {
	return &accum{
		opUS:     make([]float64, 0, opCap),
		series:   map[string][]float64{},
		counts:   map[string]float64{},
		failures: map[string]int64{},
	}
}

// observe adds one sample to a named series.
func (a *accum) observe(name string, v float64) { a.series[name] = append(a.series[name], v) }

// fail counts n failed operations under a named check.
func (a *accum) fail(name string, n int64) {
	if n > 0 {
		a.failed += n
		a.failures[name] += n
	}
}

// failureNames lists the failed checks, sorted, as "name×count".
func (a *accum) failureNames() []string {
	var out []string
	for _, k := range sortedKeys(a.failures) {
		out = append(out, fmt.Sprintf("%s×%d", k, a.failures[k]))
	}
	return out
}

// value is one reported number; N is the sample count behind a percentile
// or median (0 for plain counters and ratios). Weak marks a percentile with
// fewer than minBeyond samples beyond it: it is printed, but it is a couple
// of outliers and will not repeat.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Weak  bool    `json:"weak,omitempty"`
}

// allocNow returns the cumulative allocation counters, after a forced
// collection when collect is set (every slice starts from a collected heap).
func allocNow(collect bool) (totalAlloc, mallocs uint64) {
	if collect {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// minSlices is the fewest slices a measured pass runs however slow the host:
// the throughput metrics are medians over slices, and alloc_mb covers exactly
// these.
const minSlices = 4

// setupReps is how many times a measured pass sets the workload up; set-up
// time is the median, so one slow directory creation does not decide it.
const setupReps = 3

// runner drives one workload through set-up and its measured slices. The
// suite steps several runners round-robin so host drift hits all workloads
// alike; the single-workload mode steps one runner to the end.
//
// Every host-time figure a runner reports is scaled by the host speed
// measured around it (see hostSpeed): the shared host this was written on
// changes speed by tens of percent for tens of seconds at a time, which is
// more than any bound a regression gate could use.
type runner struct {
	w      workload
	acc    *accum
	budget time.Duration
	spent  time.Duration // wall clock inside step: slices, collection, calibration
	next   int
	setupS []float64 // set-up times at reference host speed
	speeds []float64 // compute host speed during each slice
	speed  hostSpeed // host speed when the last slice (or the last set-up) ended
}

// newRunner sets the workload up setupReps times, keeping the last instance
// for the slices.
func newRunner(w workload, seconds float64) (*runner, error) {
	r := &runner{w: w, acc: newAccum(1 << 20), budget: time.Duration(seconds * float64(time.Second))}
	r.speed = measureHostSpeed(w.memoryBound())
	for i := 0; i < setupReps; i++ {
		t0 := now()
		if _, err := w.setUp(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		d := since(t0).Seconds()
		after := measureHostSpeed(w.memoryBound())
		r.setupS = append(r.setupS, d*between(r.speed, after).compute)
		r.speed = after
	}
	return r, nil
}

// done reports whether the time budget is used up. The budget counts the
// runner's own steps only, so interleaving runners does not shorten it.
func (r *runner) done() bool { return r.next >= minSlices && r.spent >= r.budget }

// step runs the next slice and scales what it measured to reference host
// speed, using the mean of the speed measured just before and just after.
func (r *runner) step() error {
	stepStart := now()
	defer func() { r.spent += since(stepStart) }()
	alloc0, _ := allocNow(true)
	r.acc.cur = sliceStat{}
	firstOp := len(r.acc.opUS)
	t0 := now()
	err := r.w.slice(r.next, nil, r.acc)
	wall := since(t0)
	if err != nil {
		return fmt.Errorf("%s: slice %d: %w", r.w.name(), r.next, err)
	}
	st := r.acc.cur
	if alloc1, _ := allocNow(false); st.allocMB == 0 {
		st.allocMB = float64(alloc1-alloc0) / (1 << 20)
	}
	if st.busy == 0 {
		st.busy = wall
	}
	after := measureHostSpeed(r.w.memoryBound())
	speed := between(r.speed, after)
	r.speed = after
	r.speeds = append(r.speeds, speed.compute)
	if r.w.memoryBound() {
		st.busy = time.Duration(float64(st.busy) * speed.memory)
	} else {
		st.busy = time.Duration(float64(st.busy) * speed.compute)
	}
	for i := firstOp; i < len(r.acc.opUS); i++ {
		r.acc.opUS[i] *= speed.compute
	}
	r.acc.slices = append(r.acc.slices, st)
	r.next++
	return nil
}

// rates returns each slice's throughput at reference host speed.
func (r *runner) rates() []float64 {
	out := make([]float64, len(r.acc.slices))
	for i, s := range r.acc.slices {
		out[i] = s.work / s.busy.Seconds()
	}
	return out
}

// endToEnd turns the pooled measurements into the end-to-end metrics.
func (r *runner) endToEnd() map[string]value {
	tput := r.rates()
	// Allocation is a property of the work, not of the host, so it is taken
	// over the slices every run executes: the fleet's store keeps growing, and
	// a faster host would otherwise report the bigger compactions it got to.
	var alloc []float64
	for _, s := range r.acc.slices[:minSlices] {
		alloc = append(alloc, s.allocMB)
	}
	ops := sortedCopy(r.acc.opUS)
	p50, ok50 := quantile(ops, 0.50)
	p90, ok90 := quantile(ops, 0.90)
	return map[string]value{
		"setup_s":    {Value: median(r.setupS), Unit: "s", N: len(r.setupS)},
		"work_per_s": {Value: median(tput), Unit: "1/s", N: len(tput)},
		"op_us_p50":  {Value: p50, Unit: "us", N: len(ops), Weak: !ok50},
		"op_us_p90":  {Value: p90, Unit: "us", N: len(ops), Weak: !ok90},
		// The mean, because allocation is periodic across slices (a fleet
		// slice with a store flush allocates more) and a median would report
		// one kind of slice or the other.
		"alloc_mb": {Value: mean(alloc), Unit: "MB", N: len(alloc)},
	}
}

// sliceIQRPct is the spread of the per-slice throughput, the number that
// says whether a difference between two result files can be resolved.
func (r *runner) sliceIQRPct() float64 { return 100 * iqrShare(r.rates()) }

// hashWriter is the sink the workloads attach trace writers to: it keeps a
// running FNV-1a digest and a byte count instead of the bytes.
type hashWriter struct {
	hash.Hash64
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{Hash64: fnv.New64a()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.Hash64.Write(p)
}

// digestOf hashes one byte slice.
func digestOf(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash.Write never fails
	return h.Sum64()
}

// mix folds values into a digest.
func mix(h uint64, vs ...uint64) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = f.Write(b[:]) // hash.Hash.Write never fails
	}
	put(h)
	for _, v := range vs {
		put(v)
	}
	return f.Sum64()
}
