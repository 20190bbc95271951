package vision

import "sov/internal/parallel"

// Fixed-point stereo cost aggregation (DESIGN.md §8). The SAD search over
// 8-bit codes accumulates in int32 — exact integer arithmetic, no clamping
// branches on the interior fast path — and only the final sub-pixel parabola
// touches floating point. Disparities land within a tested budget of the
// float matcher while the cost loop runs several times faster.

// sadAtQ computes the int32 sum of absolute differences between a
// (2*half+1)² patch in left at (x, y) and in right at (x-d, y).
//
//sov:hotpath
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
// float path. scratch holds per-candidate costs (borrow via parallel.GetI32).
//
//sov:hotpath
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
	costs := scratch
	if cap(costs) < dMax-dMin+1 {
		//sovlint:ignore hotalloc fallback for nil scratch; the matchers pass pooled GetI32 buffers
		costs = make([]int32, dMax-dMin+1)
	}
	costs = costs[:dMax-dMin+1]
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

// StereoScratch carries the fixed-point matchers' reusable state across
// frames: the per-pixel cost band and the support-point list. The zero
// value is ready to use; buffers grow on first use and stick, so a control
// loop that keeps one StereoScratch per camera pair allocates nothing once
// warm (serial path — the parallel fan-out borrows pooled buffers instead).
type StereoScratch struct {
	costs []int32
	sps   []SupportPoint
}

// costBand returns the scratch cost vector for an n-candidate search.
func (s *StereoScratch) costBand(n int) []int32 {
	if cap(s.costs) < n {
		//sovlint:ignore hotalloc first-call scratch growth; warm frames reuse the band
		s.costs = make([]int32, n)
	}
	return s.costs[:n]
}

// sizeMap readies m for a w×h disparity plane, reusing its backing store
// when it is large enough.
func sizeMap(m *DisparityMap, w, h int) {
	m.W, m.H = w, h
	if cap(m.D) < w*h {
		//sovlint:ignore hotalloc first-call output growth; warm frames reuse the plane
		m.D = make([]float32, w*h)
	} else {
		m.D = m.D[:w*h]
	}
}

// BlockMatchQuant is the fixed-point BlockMatch: exhaustive int32-SAD search
// over 8-bit frames. Output layout and validity semantics are identical to
// the float matcher's.
func BlockMatchQuant(left, right *QImage, maxDisp, half int) *DisparityMap {
	m := &DisparityMap{}
	BlockMatchQuantInto(m, left, right, maxDisp, half, &StereoScratch{})
	return m
}

// BlockMatchQuantInto is the allocation-free BlockMatchQuant: the disparity
// plane and cost band live in caller-owned storage. Output is byte-identical
// to BlockMatchQuant for any worker count.
//
//sov:hotpath
func BlockMatchQuantInto(m *DisparityMap, left, right *QImage, maxDisp, half int, s *StereoScratch) {
	sizeMap(m, left.W, left.H)
	if parallel.Workers() <= 1 {
		costs := s.costBand(maxDisp + 1)
		for y := 0; y < left.H; y++ {
			for x := 0; x < left.W; x++ {
				m.D[y*m.W+x] = matchPixelQ(left, right, x, y, 0, maxDisp, half, costs)
			}
		}
		return
	}
	//sovlint:ignore hotalloc fan-out closure only exists on the parallel path; the serial path above is allocation-free
	parallel.For(left.H, sadRowBlock, func(y0, y1 int) {
		costs := parallel.GetI32(maxDisp + 1)
		for y := y0; y < y1; y++ {
			for x := 0; x < left.W; x++ {
				m.D[y*m.W+x] = matchPixelQ(left, right, x, y, 0, maxDisp, half, costs)
			}
		}
		parallel.PutI32(costs)
	})
}

// SupportPointsQuantInto appends the support grid's matches to dst in
// row-major scan order and returns it.
//
//sov:hotpath
func SupportPointsQuantInto(dst []SupportPoint, left, right *QImage, maxDisp, half, stride int, s *StereoScratch) []SupportPoint {
	costs := s.costBand(maxDisp + 1)
	for y := half; y < left.H-half; y += stride {
		for x := half; x < left.W-half; x += stride {
			if d := matchPixelQ(left, right, x, y, 0, maxDisp, half, costs); d >= 0 {
				dst = append(dst, SupportPoint{X: x, Y: y, D: d})
			}
		}
	}
	return dst
}

// SupportPointStereoQuant is the fixed-point ELAS-style matcher: sparse
// support points build a disparity prior, then each pixel searches a narrow
// band with the int32-SAD kernel.
func SupportPointStereoQuant(left, right *QImage, maxDisp, half, stride, band int) *DisparityMap {
	m := &DisparityMap{}
	SupportPointStereoQuantInto(m, left, right, maxDisp, half, stride, band, &StereoScratch{})
	return m
}

// SupportPointStereoQuantInto is the allocation-free SupportPointStereoQuant:
// support points, cost bands, and the disparity plane all live in
// caller-owned storage. Output is byte-identical to the allocating form.
//
//sov:hotpath
func SupportPointStereoQuantInto(m *DisparityMap, left, right *QImage, maxDisp, half, stride, band int, s *StereoScratch) {
	s.sps = SupportPointsQuantInto(s.sps[:0], left, right, maxDisp, half, stride, s)
	sps := s.sps
	sizeMap(m, left.W, left.H)
	if len(sps) == 0 {
		for i := range m.D {
			m.D[i] = -1
		}
		return
	}
	if parallel.Workers() <= 1 {
		costs := s.costBand(maxDisp + 1)
		for y := 0; y < left.H; y++ {
			for x := 0; x < left.W; x++ {
				prior := interpolatePrior(sps, x, y)
				dMin := int(prior) - band
				dMax := int(prior) + band
				if dMax > maxDisp {
					dMax = maxDisp
				}
				m.D[y*m.W+x] = matchPixelQ(left, right, x, y, dMin, dMax, half, costs)
			}
		}
		return
	}
	//sovlint:ignore hotalloc fan-out closure only exists on the parallel path; the serial path above is allocation-free
	parallel.For(left.H, sadRowBlock, func(y0, y1 int) {
		costs := parallel.GetI32(maxDisp + 1)
		for y := y0; y < y1; y++ {
			for x := 0; x < left.W; x++ {
				prior := interpolatePrior(sps, x, y)
				dMin := int(prior) - band
				dMax := int(prior) + band
				if dMax > maxDisp {
					dMax = maxDisp
				}
				m.D[y*m.W+x] = matchPixelQ(left, right, x, y, dMin, dMax, half, costs)
			}
		}
		parallel.PutI32(costs)
	})
}
