package nn

import (
	"testing"

	"sov/internal/cachesim"
)

// The GEMM column-block width is not a guess: this test replays the im2col
// backend's memory access stream — A-panel gather from the padded input
// through the tap table, packed-panel writes, the per-row-panel multiply
// sweep, output writeback — through the cachesim LRU model for a range of
// block widths, and holds the shipped gemmColBlock at the measured
// miss-rate optimum. The replay uses the BENCH_quant conv shape (16ch 48×64
// → 32ch 3×3 s1 p1).

const (
	tileInC, tileInH, tileInW = 16, 48, 64
	tileOutC, tileK, tilePad  = 32, 3, 1
)

// llc is the model cache: a 9 MB last-level cache scaled down by the same
// ~100x as the synthetic working sets, so the capacity-pressure regime of a
// full-size frame is preserved.
var llc = cachesim.Config{SizeBytes: 96 * 1024, LineBytes: 64, Ways: 12}

// replayGEMMStream drives one full forwardGEMM's worth of accesses with
// column block width nc through the cache model, for the plain layer or
// with a fused 2×2 max pool. The gather addresses come from a real layer's
// tap table and column corners, in packAGroup's order. Regions are spaced
// so they never alias: pbuf (padded biased input bytes), the tap table,
// abuf (the reused A-panel scratch), the packed B panels, and the int8
// output plane.
func replayGEMMStream(c *cachesim.Cache, nc int, pool bool) {
	const (
		pbase int64 = 0
		tbase int64 = 1 << 19
		abase int64 = 1 << 20
		bbase int64 = 2 << 20
		obase int64 = 3 << 20
	)
	qc := NewQConv2D(&Conv2D{
		InC: tileInC, OutC: tileOutC, K: tileK, Stride: 1, Pad: tilePad,
		Weights: make([]float32, tileOutC*tileInC*tileK*tileK), Bias: make([]float32, tileOutC),
	}, QuantParams{Scale: 1}, QuantParams{Scale: 1})
	qc.Pool = pool
	qc.reshape(tileInH, tileInW)
	taps := qc.gemm.taps
	nw := qc.gemm.nw
	pw := tileInW + 2*tilePad
	_, oh, ow := qc.OutShape(tileInC, tileInH, tileInW)
	out := &QTensor{H: oh, W: ow}
	p := qc.gemmCols(out)
	// Output bytes per GEMM column: a pooled group of four writes one.
	perCol := 1
	if pool {
		perCol = 4
	}
	panelBytes := int64(nw * 4 * 8)
	for colBase := 0; colBase < p; colBase += nc {
		cols := nc
		if colBase+cols > p {
			cols = p - colBase
		}
		groups := (cols + 3) / 4
		// A-pack: per tap, one table entry and one byte from each of the
		// group's four windows; then the group's panel is written.
		for g := 0; g < groups; g++ {
			for k, off := range taps {
				c.Access(tbase+int64(4*k), 4)
				for ci := 0; ci < 4; ci++ {
					col := min(colBase+g*4+ci, p-1)
					c.Access(pbase+int64(qc.corner(col, ow, pw))+int64(off), 1)
				}
			}
			c.Access(abase+int64(g)*panelBytes, panelBytes) // pack writes
		}
		// Multiply: every row panel streams B once and the whole A block.
		mpanels := (tileOutC + 3) / 4
		for rb := 0; rb < mpanels; rb++ {
			for g := 0; g < groups; g++ {
				c.Access(abase+int64(g)*panelBytes, panelBytes)
				c.Access(bbase+int64(rb)*panelBytes, panelBytes)
			}
			for r := 0; r < 4; r++ {
				o := rb*4 + r
				if o >= tileOutC {
					break
				}
				c.Access(obase+int64((o*p+colBase)/perCol), int64((cols+perCol-1)/perCol))
			}
		}
	}
}

// TestGEMMColBlockAtSweepOptimum sweeps the column block width and requires
// the shipped gemmColBlock to sit within 10% of the best measured miss
// rate, in the plain gather order and in the pooled one (each four-column
// group one 2×2 window). The sweep shape is the capacity cliff: blocks of
// 256 columns outgrow the model cache (96 KB of A panel + 12 KB of B),
// while narrow blocks re-stream the B panels once per block.
func TestGEMMColBlockAtSweepOptimum(t *testing.T) {
	candidates := []int{32, 64, 128, 256, 512}
	for _, pool := range []bool{false, true} {
		rates := make(map[int]float64, len(candidates))
		best := 1.0
		for _, nc := range candidates {
			c := cachesim.New(llc)
			replayGEMMStream(c, nc, pool)
			r := c.Stats().MissRate()
			rates[nc] = r
			if r < best {
				best = r
			}
			t.Logf("pool %v column block %3d: miss rate %.5f", pool, nc, r)
		}
		shipped, ok := rates[gemmColBlock]
		if !ok {
			t.Fatalf("shipped gemmColBlock %d not in sweep candidates %v", gemmColBlock, candidates)
		}
		if shipped > best*1.10 {
			t.Fatalf("pool %v: shipped gemmColBlock %d misses at %.5f, > 10%% above sweep optimum %.5f",
				pool, gemmColBlock, shipped, best)
		}
	}
}
