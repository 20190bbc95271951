package nn

import (
	"math/rand"
	"testing"
)

// TestPairDotIdentity checks the SWAR pair-dot reconstruction against the
// scalar dot product over every length parity and the full code range.
func TestPairDotIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 255, 256, 257} {
		for trial := 0; trial < 8; trial++ {
			x := make([]int8, n)
			w := make([]int8, n)
			for i := range x {
				x[i] = int8(rng.Intn(256) - 128)
				w[i] = int8(rng.Intn(255) - 127) // weights are symmetric: |w| ≤ 127
			}
			// Force extremes into the mix.
			if n >= 2 {
				x[0], w[0] = -128, 127
				x[1], w[1] = 127, -127
			}
			var want int64
			for i := range x {
				want += int64(w[i]) * int64(x[i])
			}
			np := swarPairs(n)
			xp := make([]uint64, np)
			wp := make([]uint64, np)
			sumU := packPairsInto(xp, x)
			wsumB := packWeightPairsInto(wp, w)
			var s uint64
			for i := range xp {
				s += (xp[i] * wp[i]) >> 32
			}
			got := swarRowConst(0, wsumB, np) - 128*sumU + int64(s)
			if got != want {
				t.Fatalf("n=%d trial=%d: pair-dot %d != scalar %d", n, trial, got, want)
			}
		}
	}
}
