package nn

import (
	"math/rand"
	"testing"
)

// tripleDot is the triple-dot reconstruction of Σ w·x from the packed
// operands, as the kernels compute it.
func tripleDot(x, w []int8) int64 {
	nw := swarWords(len(x))
	xp := make([]uint64, nw)
	wp := make([]uint64, nw)
	sumU := packTriplesInto(xp, x)
	wsumB := packWeightTriplesInto(wp, w)
	var s uint64
	for i := range xp {
		s += (xp[i] * wp[i]) >> swarShift
	}
	return swarRowConst(0, 0, wsumB, nw) - 128*sumU + int64(s)
}

// TestTripleDotIdentity checks the SWAR triple-dot reconstruction against
// the scalar dot product over every length residue mod 3 and the full code
// range, and on all-extreme rows: every u = 255 and w' = 255 (x = w = 127)
// puts 3·255² in every word's window, the largest sum it must hold, and
// x = −128 against w = ±127 drives the cross terms with u = 0.
func TestTripleDotIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 255, 256, 257} {
		for trial := 0; trial < 8; trial++ {
			x := make([]int8, n)
			w := make([]int8, n)
			for i := range x {
				x[i] = int8(rng.Intn(256) - 128)
				w[i] = int8(rng.Intn(255) - 127) // weights are symmetric: |w| ≤ 127
			}
			// Force extremes into the mix.
			if n >= 3 {
				x[0], w[0] = -128, 127
				x[1], w[1] = 127, -127
				x[2], w[2] = 127, 127
			}
			checkTripleDot(t, x, w)
		}
		for _, xv := range []int8{127, -128} {
			for _, wv := range []int8{127, -127} {
				x := make([]int8, n)
				w := make([]int8, n)
				for i := range x {
					x[i], w[i] = xv, wv
				}
				checkTripleDot(t, x, w)
			}
		}
	}
}

func checkTripleDot(t *testing.T, x, w []int8) {
	t.Helper()
	var want int64
	for i := range x {
		want += int64(w[i]) * int64(x[i])
	}
	if got := tripleDot(x, w); got != want {
		t.Fatalf("n=%d x[0]=%d w[0]=%d: triple-dot %d != scalar %d", len(x), x[0], w[0], got, want)
	}
}
