package vision

import "sov/internal/parallel"

// Fixed-point stereo cost aggregation (DESIGN.md §8). The SAD search over
// 8-bit codes accumulates in int32 — exact integer arithmetic, no clamping
// branches on the interior fast path — and only the final sub-pixel parabola
// touches floating point. Disparities land within a tested budget of the
// float matcher while the cost loop runs several times faster.

// sadAtQ computes the int32 sum of absolute differences between a
// (2*half+1)² patch in left at (x, y) and in right at (x-d, y).
func sadAtQ(left, right *QImage, x, y, d, half int) int32 {
	if x-half >= 0 && x+half < left.W && y-half >= 0 && y+half < left.H &&
		x-d-half >= 0 && x-d+half < right.W {
		// Interior: both patches are fully inside their images, so the rows
		// are contiguous subslices and the inner loop is branch-free.
		var sad int32
		for dy := -half; dy <= half; dy++ {
			lo := (y+dy)*left.W + x - half
			lrow := left.Pix[lo : lo+2*half+1]
			rrow := right.Pix[(y+dy)*right.W+x-d-half:]
			for i, lv := range lrow {
				diff := int32(lv) - int32(rrow[i])
				if diff < 0 {
					diff = -diff
				}
				sad += diff
			}
		}
		return sad
	}
	var sad int32
	for dy := -half; dy <= half; dy++ {
		for dx := -half; dx <= half; dx++ {
			diff := int32(left.At(x+dx, y+dy)) - int32(right.At(x+dx-d, y+dy))
			if diff < 0 {
				diff = -diff
			}
			sad += diff
		}
	}
	return sad
}

// matchPixelQ is the fixed-point matchPixel: best disparity in [dMin, dMax]
// by int32 SAD with the same uniqueness check and sub-pixel parabola as the
// float path. scratch holds the per-candidate costs (a StereoScratch band)
// and must have room for dMax+1 of them.
func matchPixelQ(left, right *QImage, x, y, dMin, dMax, half int, scratch []int32) float32 {
	if dMin < 0 {
		dMin = 0
	}
	if dMax > x {
		dMax = x // right image column would be negative
	}
	if dMax < dMin {
		return -1
	}
	const maxCost = int32(1) << 30
	best, second := maxCost, maxCost
	bestD := -1
	costs := scratch[:dMax-dMin+1]
	// The SWAR row kernel covers the sub-band whose right-image windows are
	// interior: d ≤ x−half. Near the left image edge that is a strict prefix
	// of [dMin, dMax]; the few remaining candidates take the clamped scalar
	// path. Costs are exact either way, so the best/second scan below sees
	// the same values in the same order as the all-scalar loop.
	dSw := dMax
	if dSw > x-half {
		dSw = x - half
	}
	if dSw >= dMin && sadSWAROK(left, right, x, dMin, dSw, half) {
		sadSweepSWAR(left, right, x, y, dMin, half, costs[:dSw-dMin+1])
		for d := dSw + 1; d <= dMax; d++ {
			costs[d-dMin] = sadAtQ(left, right, x, y, d, half)
		}
		for i, c := range costs {
			if c < best {
				second = best
				best = c
				bestD = dMin + i
			} else if c < second {
				second = c
			}
		}
	} else {
		for d := dMin; d <= dMax; d++ {
			c := sadAtQ(left, right, x, y, d, half)
			costs[d-dMin] = c
			if c < best {
				second = best
				best = c
				bestD = d
			} else if c < second {
				second = c
			}
		}
	}
	if bestD < 0 {
		return -1
	}
	// Uniqueness, all-integer: second < best*1.05  ⟺  20*second < 21*best.
	if dMax > dMin && 20*second < 21*best {
		return -1
	}
	// Sub-pixel parabola fit around the minimum.
	d := float64(bestD)
	i := bestD - dMin
	if i > 0 && i < len(costs)-1 {
		c0, c1, c2 := costs[i-1], costs[i], costs[i+1]
		if denom := c0 - 2*c1 + c2; denom > 0 {
			d += 0.5 * float64(c0-c2) / float64(denom)
		}
	}
	return float32(d)
}

// StereoScratch carries the fixed-point matcher's per-pixel cost bands
// across frames: one band on the serial path, one per tile on the parallel
// one. The zero value is ready to use; the bands grow on first use and
// stick, so a control loop that keeps one StereoScratch per camera pair
// allocates nothing in the matcher once warm.
type StereoScratch struct {
	costs []int32
}

// costBand returns the scratch for n costs.
func (s *StereoScratch) costBand(n int) []int32 {
	if cap(s.costs) < n {
		s.costs = make([]int32, n)
	}
	return s.costs[:n]
}

// sizeMap readies m for a w×h disparity plane, reusing its backing store
// when it is large enough.
func sizeMap(m *DisparityMap, w, h int) {
	m.W, m.H = w, h
	if cap(m.D) < w*h {
		m.D = make([]float32, w*h)
	} else {
		m.D = m.D[:w*h]
	}
}

// BlockMatchQuantInto is the fixed-point BlockMatch: exhaustive int32-SAD
// search over 8-bit frames, with the disparity plane and cost bands in
// caller-owned storage. Output layout and validity semantics are identical
// to the float matcher's, and the output is byte-identical for any worker
// count.
func BlockMatchQuantInto(m *DisparityMap, left, right *QImage, maxDisp, half int, s *StereoScratch) {
	sizeMap(m, left.W, left.H)
	n := maxDisp + 1
	if parallel.Workers() <= 1 {
		matchRowsQ(m, left, right, 0, left.H, maxDisp, half, s.costBand(n))
		return
	}
	// Tile bands start a whole cache line (16 int32) past the previous one's
	// end, so two workers never write the same line.
	stride := n + 16
	bands := s.costBand(parallel.Tiles(left.H, sadRowBlock) * stride)
	parallel.For(left.H, sadRowBlock, func(y0, y1 int) {
		b := y0 / sadRowBlock * stride
		matchRowsQ(m, left, right, y0, y1, maxDisp, half, bands[b:b+n])
	})
}

// matchRowsQ fills rows [y0, y1) of m through one cost band.
func matchRowsQ(m *DisparityMap, left, right *QImage, y0, y1, maxDisp, half int, costs []int32) {
	for y := y0; y < y1; y++ {
		for x := 0; x < left.W; x++ {
			m.D[y*m.W+x] = matchPixelQ(left, right, x, y, 0, maxDisp, half, costs)
		}
	}
}
