package planning

import (
	"math"
	"math/rand"
	"testing"
)

// kernelSincos is what a memo miss in roll and probes computes: the
// first-octant kernel where it applies, math.Sincos everywhere else.
func kernelSincos(h float64) (sin, cos float64) {
	if firstOctant(h) {
		return sincosPoly(h)
	}
	return math.Sincos(h)
}

// sincosOctant0 is where math.Sincos keeps its reduced argument z = |h|:
// h is nonzero and below its Payne–Hanek threshold (NaN is not), and the
// integer part of |h|·(4/π), Sincos's octant, is 0.
func sincosOctant0(h float64) bool {
	a := math.Abs(h)
	return a != 0 && a < 1<<29 && uint64(a*(4/math.Pi)) == 0
}

// checkSincos fails unless kernelSincos(h) is math.Sincos(h) bit for bit
// and h took the kernel exactly when Sincos reduces it to itself, and
// reports whether h took the kernel. The second check is the one that sees
// the cut: at h = ±π/4 (the float), the one heading where |h|·(4/π) rounds
// to 1, the kernel happens to return Sincos's octant-1 bits.
func checkSincos(t *testing.T, h float64) bool {
	if firstOctant(h) != sincosOctant0(h) {
		t.Helper()
		t.Fatalf("h = %v (%#016x): firstOctant %v, but Sincos's octant-0 test says %v", h, math.Float64bits(h), firstOctant(h), sincosOctant0(h))
	}
	s, c := kernelSincos(h)
	ws, wc := math.Sincos(h)
	if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
		t.Helper() // here, not on entry: it costs more than the check
		t.Fatalf("h = %v (%#016x): kernel (%v, %v) = (%#016x, %#016x), math.Sincos (%v, %v) = (%#016x, %#016x)",
			h, math.Float64bits(h), s, c, math.Float64bits(s), math.Float64bits(c),
			ws, wc, math.Float64bits(ws), math.Float64bits(wc))
	}
	return firstOctant(h)
}

// TestSincosMatchesMath holds the memo-miss evaluation to math.Sincos in
// Float64bits: on the special values the kernel must leave to Sincos, on the
// floats around the ±π/4 cut, and on seeded headings over the planner's
// clamp. Each region must send some headings each way.
func TestSincosMatchesMath(t *testing.T) {
	negZero := math.Copysign(0, -1)
	maxSub := math.Float64frombits(0x000fffffffffffff)
	for _, h := range []float64{
		0, negZero, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, maxSub, -maxSub,
		0x1p-1022, -0x1p-1022, 1e-300, -1e-300, 0x1p-27, -0x1p-27,
		math.Pi / 4, -math.Pi / 4, 2.5, -2.5, math.Pi, math.MaxFloat64, -math.MaxFloat64,
	} {
		checkSincos(t, h)
	}
	if firstOctant(0) || firstOctant(negZero) || firstOctant(math.NaN()) || firstOctant(math.Inf(-1)) {
		t.Fatal("±0, NaN or ±Inf took the kernel; math.Sincos must answer for them")
	}
	if !firstOctant(math.SmallestNonzeroFloat64) || !firstOctant(-maxSub) {
		t.Fatal("a subnormal heading skipped the kernel")
	}

	// Around each cut: 1e5 consecutive floats on either side of ±π/4.
	// Several floats there round |h|·(4/π) to exactly 1, which Sincos puts
	// in octant 1.
	const side = 100000
	for _, cut := range []float64{math.Pi / 4, -math.Pi / 4} {
		in, out := 0, 0
		for _, toward := range []float64{0, 2 * cut} {
			h := cut
			for i := 0; i < side; i++ {
				h = math.Nextafter(h, toward)
				if checkSincos(t, h) {
					in++
				} else {
					out++
				}
			}
		}
		if in == 0 || out == 0 {
			t.Fatalf("around %v: %d headings took the kernel and %d math.Sincos; want both", cut, in, out)
		}
	}

	// 1e7 seeded headings over the planner's clamp [-2.5, 2.5].
	const n = 10_000_000
	rng := rand.New(rand.NewSource(1))
	in := 0
	for i := 0; i < n; i++ {
		if checkSincos(t, 5*rng.Float64()-2.5) {
			in++
		}
	}
	if in == 0 || in == n {
		t.Fatalf("%d of %d uniform headings took the kernel; want some of each", in, n)
	}
}

// FuzzSincosMatchesMath holds the memo-miss evaluation to math.Sincos on any
// float64.
func FuzzSincosMatchesMath(f *testing.F) {
	for _, h := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1),
		math.SmallestNonzeroFloat64, -0x1p-1030, 0.3, -1.2,
		math.Nextafter(math.Pi/4, 0), math.Pi / 4, -math.Pi / 4, math.Nextafter(-math.Pi/4, -1)} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h float64) { checkSincos(t, h) })
}
