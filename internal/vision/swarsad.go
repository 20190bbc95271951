package vision

import "encoding/binary"

// SWAR sum-of-absolute-differences over 8-bit pixel codes (DESIGN.md §10).
// One uint64 holds eight horizontally adjacent pixels; a branch-free
// byte-wise unsigned max/min select turns |a−b| into hi−lo with no
// per-pixel sign test, and a multiply-fold reduces the eight byte
// differences to one int32. Stereo windows up to eight pixels wide load as
// a single masked word per row, so the cost loop retires eight pixel
// differences per ~20 ALU operations instead of eight compare-and-branch
// round trips.

const (
	// sadRowBlock is the stereo matchers' parallel row-block height. Each
	// tile of R output rows drags a (R + 2·half)-row halo of both images
	// through a worker's cache, so the redundant halo traffic scales as
	// (R + 2·half)/R and larger tiles waste less; the cap is load balance —
	// the bench frames (96 rows) must still split across every worker. The
	// cachesim sweep in tiles_test.go holds the shipped value at the
	// miss-rate optimum among candidates that keep at least eight tiles
	// (DESIGN.md §10).
	sadRowBlock = 12

	// sadHigh marks bit 7 of every byte lane — the carry fence of the
	// byte-wise unsigned comparison.
	sadHigh = 0x8080808080808080
	// sadLow16 selects the even byte of every 16-bit lane for the fold.
	sadLow16 = 0x00FF00FF00FF00FF
	// sadOnes16 is the 16-bit-lane horizontal-sum multiplier: the top lane
	// of t*sadOnes16 accumulates all four lanes.
	sadOnes16 = 0x0001000100010001
)

// load8u loads eight consecutive pixels little-endian: pixel p[off+i] lands
// in byte lane i. binary.LittleEndian.Uint64 compiles to a single load on
// little-endian targets.
func load8u(p []uint8, off int) uint64 {
	return binary.LittleEndian.Uint64(p[off : off+8 : off+8])
}

// sadWindowMask keeps the low w byte lanes of a loaded word, discarding the
// up-to-(8−w) trailing pixels a window narrower than the load width drags
// in. w must be in [1, 8].
func sadWindowMask(w int) uint64 {
	return ^uint64(0) >> (8 * uint(8-w))
}

// sad8 returns Σ|x_i − y_i| over the eight unsigned byte lanes of x and y.
//
// The byte-wise x ≥ y mask comes from the classic borrow-fenced subtract:
// z = (x|H) − (y &^ H) subtracts within each byte (the forced high bit
// blocks inter-byte borrows), and bit 7 of (x &^ y) | (^(x^y) & z) is the
// per-byte comparison — x's high bit wins outright, equal high bits defer
// to the fenced difference. Spreading that bit to a full-byte mask selects
// hi = max(x,y) and lo = min(x,y) per lane, whose difference has no
// inter-byte borrows; two 16-bit folds and one multiply sum the lanes.
func sad8(x, y uint64) int32 {
	z := (x | sadHigh) - (y &^ sadHigh)
	m := ((((x &^ y) | (^(x ^ y) & z)) & sadHigh) >> 7) * 0xFF
	d := ((x & m) | (y &^ m)) - ((y & m) | (x &^ m))
	return int32((((d & sadLow16) + ((d >> 8) & sadLow16)) * sadOnes16) >> 48)
}

// sadSWAROK reports whether every candidate disparity in [dMin, dMax] for
// output pixel column x can run the SWAR row kernel: the window fits one
// masked word and the horizontal extents — window plus load tail — stay
// inside both images for every candidate. Vertical border rows are fine:
// the sweep clamps the row index exactly like the scalar path's At, and a
// row-local load never crosses the pixel buffer's end once its x-tail fits
// the row.
func sadSWAROK(left, right *QImage, x, dMin, dMax, half int) bool {
	return 2*half+1 <= 8 && left.H == right.H &&
		x-half >= 0 && x-half+8 <= left.W &&
		x-dMax-half >= 0 && x-dMin-half+8 <= right.W
}

// sadSweepSWAR fills costs[i] with the SAD at disparity dMin+i for the
// (2·half+1)² window at (x, y), reusing each left-row load across every
// candidate. Rows off the top or bottom edge replicate the border row —
// the same clamp At applies — so border-row windows cost the same as
// interior ones. Caller must have checked sadSWAROK. The sums are exact,
// so costs match sadAtQ byte for byte.
func sadSweepSWAR(left, right *QImage, x, y, dMin, half int, costs []int32) {
	w := 2*half + 1
	mask := sadWindowMask(w)
	for i := range costs {
		costs[i] = 0
	}
	for dy := -half; dy <= half; dy++ {
		iy := y + dy
		if iy < 0 {
			iy = 0
		} else if iy >= left.H {
			iy = left.H - 1
		}
		lo := iy*left.W + x - half
		ro := iy*right.W + x - dMin - half
		lv := load8u(left.Pix, lo) & mask
		for i := range costs {
			rv := load8u(right.Pix, ro-i) & mask
			costs[i] += sad8(lv, rv)
		}
	}
}
