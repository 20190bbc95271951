package vision

import (
	"testing"

	"sov/internal/cachesim"
)

// The stereo matchers' parallel row-block height is held to a cachesim
// sweep the same way the GEMM column block is: this test replays the block
// matcher's access stream — per-pixel left-row loads and the per-candidate
// right-row loads of the SWAR sweep — once per tile through a cold cache
// (each worker's private cache sees its tile from scratch), and requires
// the shipped sadRowBlock to sit at the miss-rate optimum among candidates
// that still split the bench frame (96 rows) across eight workers. Small
// tiles pay the (R + 2·half)-row halo over and over; the constraint caps
// how far the sweep can push R.

// llc is the model cache: a 9 MB last-level cache scaled down by the same
// ~100x as the synthetic working sets, so the capacity-pressure regime of a
// full-size frame is preserved.
var llc = cachesim.Config{SizeBytes: 96 * 1024, LineBytes: 64, Ways: 12}

// replaySADStream drives one frame of BlockMatchQuantInto accesses (the bench
// shape: 128×96, maxDisp 12, half 3) tiled into row blocks of height r.
// The cache resets per tile to model each tile landing on a cold private
// cache.
func replaySADStream(c *cachesim.Cache, r int) (accesses, misses int64) {
	const (
		w, h                = 128, 96
		maxDisp, half       = 12, 3
		lbase         int64 = 0
		rbase         int64 = 1 << 20
	)
	for y0 := 0; y0 < h; y0 += r {
		y1 := y0 + r
		if y1 > h {
			y1 = h
		}
		c.Reset()
		for y := y0; y < y1; y++ {
			for x := half; x < w-half-8; x++ {
				dMax := maxDisp
				if dMax > x-half {
					dMax = x - half
				}
				for dy := -half; dy <= half; dy++ {
					iy := y + dy
					if iy < 0 {
						iy = 0
					} else if iy >= h {
						iy = h - 1
					}
					c.Access(lbase+int64(iy*w+x-half), 8)
					for d := 0; d <= dMax; d++ {
						c.Access(rbase+int64(iy*w+x-d-half), 8)
					}
				}
			}
		}
		s := c.Stats()
		accesses += s.Accesses
		misses += s.Misses
	}
	return accesses, misses
}

// TestSADRowBlockAtSweepOptimum sweeps the row-block height and requires
// the shipped sadRowBlock to sit within 10% of the best measured miss rate
// among candidates that keep at least eight tiles on the bench frame.
func TestSADRowBlockAtSweepOptimum(t *testing.T) {
	const frameRows, minTiles = 96, 8
	candidates := []int{2, 3, 4, 6, 8, 12, 16, 24}
	rates := make(map[int]float64, len(candidates))
	best := 1.0
	for _, r := range candidates {
		if (frameRows+r-1)/r < minTiles {
			continue // too coarse: the frame no longer feeds every worker
		}
		c := cachesim.New(llc)
		acc, miss := replaySADStream(c, r)
		rate := float64(miss) / float64(acc)
		rates[r] = rate
		if rate < best {
			best = rate
		}
		t.Logf("row block %2d: miss rate %.5f", r, rate)
	}
	shipped, ok := rates[sadRowBlock]
	if !ok {
		t.Fatalf("shipped sadRowBlock %d not among admissible candidates", sadRowBlock)
	}
	if shipped > best*1.10 {
		t.Fatalf("shipped sadRowBlock %d misses at %.5f, > 10%% above sweep optimum %.5f",
			sadRowBlock, shipped, best)
	}
}
