package vision

import (
	"math"

	"sov/internal/parallel"
)

// DisparityMap is a dense per-pixel disparity image; invalid pixels are
// negative.
type DisparityMap struct {
	W, H int
	D    []float32
}

// At returns the disparity at (x, y), or -1 out of bounds.
func (m *DisparityMap) At(x, y int) float32 {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return -1
	}
	return m.D[y*m.W+x]
}

// sadAt computes the sum of absolute differences between a (2*half+1)²
// patch in left at (x, y) and in right at (x-d, y).
func sadAt(left, right *Image, x, y, d, half int) float64 {
	var sad float64
	for dy := -half; dy <= half; dy++ {
		for dx := -half; dx <= half; dx++ {
			diff := float64(left.At(x+dx, y+dy) - right.At(x+dx-d, y+dy))
			if diff < 0 {
				diff = -diff
			}
			sad += diff
		}
	}
	return sad
}

// matchPixel finds the best disparity in [dMin, dMax] with sub-pixel
// parabola refinement and a uniqueness check. Returns -1 when ambiguous.
// scratch, when non-nil with sufficient capacity, holds the per-candidate
// costs so the per-pixel hot path does not allocate.
func matchPixel(left, right *Image, x, y, dMin, dMax, half int, scratch []float64) float32 {
	if dMin < 0 {
		dMin = 0
	}
	if dMax > x {
		dMax = x // right image column would be negative
	}
	if dMax < dMin {
		return -1
	}
	best, second := math.Inf(1), math.Inf(1)
	bestD := -1
	costs := scratch
	if cap(costs) < dMax-dMin+1 {
		costs = make([]float64, dMax-dMin+1)
	}
	costs = costs[:dMax-dMin+1]
	for d := dMin; d <= dMax; d++ {
		c := sadAt(left, right, x, y, d, half)
		costs[d-dMin] = c
		if c < best {
			second = best
			best = c
			bestD = d
		} else if c < second {
			second = c
		}
	}
	if bestD < 0 {
		return -1
	}
	// Uniqueness: the best must beat the second-best clearly.
	if second < best*1.05 && dMax > dMin {
		return -1
	}
	// Sub-pixel parabola fit around the minimum.
	d := float64(bestD)
	i := bestD - dMin
	if i > 0 && i < len(costs)-1 {
		c0, c1, c2 := costs[i-1], costs[i], costs[i+1]
		denom := c0 - 2*c1 + c2
		if denom > 1e-12 {
			d += 0.5 * (c0 - c2) / denom
		}
	}
	return float32(d)
}

// BlockMatch computes a dense disparity map by exhaustive SAD search in
// [0, maxDisp] with a (2*half+1)² window. This is the naive baseline the
// ELAS-style matcher is compared against.
func BlockMatch(left, right *Image, maxDisp, half int) *DisparityMap {
	m := &DisparityMap{W: left.W, H: left.H, D: make([]float32, left.W*left.H)}
	parallel.ForRows(left.H, func(y0, y1 int) {
		costs := parallel.GetF64(maxDisp + 1)
		for y := y0; y < y1; y++ {
			for x := 0; x < left.W; x++ {
				m.D[y*m.W+x] = matchPixel(left, right, x, y, 0, maxDisp, half, costs)
			}
		}
		parallel.PutF64(costs)
	})
	return m
}

// SupportPoint is a robustly matched sparse point used as a disparity prior.
type SupportPoint struct {
	X, Y int
	D    float32
}

// SupportPoints matches a sparse grid of points exhaustively; only
// unambiguous matches are kept. The grid stride trades prior density for
// speed, exactly as ELAS's support points do.
func SupportPoints(left, right *Image, maxDisp, half, stride int) []SupportPoint {
	// Grid rows are matched in parallel into per-tile buckets, then
	// concatenated in tile order so the output order matches the serial
	// row-major scan exactly.
	nRows := 0
	for y := half; y < left.H-half; y += stride {
		nRows++
	}
	buckets := make([][]SupportPoint, parallel.Tiles(nRows, 1))
	parallel.ForTiled(nRows, 1, func(tile, r0, r1 int) {
		costs := parallel.GetF64(maxDisp + 1)
		var rows []SupportPoint
		for r := r0; r < r1; r++ {
			y := half + r*stride
			for x := half; x < left.W-half; x += stride {
				d := matchPixel(left, right, x, y, 0, maxDisp, half, costs)
				if d >= 0 {
					rows = append(rows, SupportPoint{X: x, Y: y, D: d})
				}
			}
		}
		buckets[tile] = rows
		parallel.PutF64(costs)
	})
	var out []SupportPoint
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// SupportPointStereo is the ELAS-style matcher: sparse support points build
// a disparity prior (inverse-distance interpolation); each pixel then
// searches only a narrow band around its prior. It produces denser, faster
// results than exhaustive block matching on well-textured scenes.
func SupportPointStereo(left, right *Image, maxDisp, half, stride, band int) *DisparityMap {
	sps := SupportPoints(left, right, maxDisp, half, stride)
	m := &DisparityMap{W: left.W, H: left.H, D: make([]float32, left.W*left.H)}
	if len(sps) == 0 {
		for i := range m.D {
			m.D[i] = -1
		}
		return m
	}
	parallel.ForRows(left.H, func(y0, y1 int) {
		costs := parallel.GetF64(maxDisp + 1)
		for y := y0; y < y1; y++ {
			for x := 0; x < left.W; x++ {
				prior := interpolatePrior(sps, x, y)
				dMin := int(prior) - band
				dMax := int(prior) + band
				if dMax > maxDisp {
					dMax = maxDisp
				}
				m.D[y*m.W+x] = matchPixel(left, right, x, y, dMin, dMax, half, costs)
			}
		}
		parallel.PutF64(costs)
	})
	return m
}

// interpolatePrior returns the inverse-distance-weighted disparity of the
// nearest support points (capped neighborhood for speed).
func interpolatePrior(sps []SupportPoint, x, y int) float64 {
	var num, den float64
	for _, sp := range sps {
		dx := float64(sp.X - x)
		dy := float64(sp.Y - y)
		d2 := dx*dx + dy*dy
		w := 1.0 / (d2 + 1)
		num += w * float64(sp.D)
		den += w
	}
	return num / den
}

// MedianDisparityIn returns the median valid disparity inside the given
// pixel rectangle; the SoV uses it to assign a single depth per detected
// object (lane-granularity depth is all the planner needs — Sec. III-D).
func MedianDisparityIn(m *DisparityMap, x0, y0, x1, y1 int) (float32, bool) {
	var vals []float32
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if d := m.At(x, y); d >= 0 {
				vals = append(vals, d)
			}
		}
	}
	if len(vals) == 0 {
		return -1, false
	}
	// Insertion sort: rectangles are small.
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return vals[len(vals)/2], true
}
