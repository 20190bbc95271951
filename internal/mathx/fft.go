package mathx

import (
	"fmt"
	"math"
	"math/bits"

	"sov/internal/parallel"
)

// FFT computes the in-place radix-2 Cooley–Tukey FFT of x. len(x) must be a
// power of two. Set inverse to compute the (scaled) inverse transform.
func FFT(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("mathx: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		ang := sign * 2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wstep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// FFT2D computes the 2-D FFT of a rows×cols image stored row-major in x,
// in place. Both dimensions must be powers of two.
//
// Row and column transforms are independent, so they run tiled across
// workers; each 1-D FFT is the same serial instruction stream for any
// worker count, keeping the result byte-identical.
func FFT2D(x []complex128, rows, cols int, inverse bool) error {
	if rows*cols != len(x) {
		return fmt.Errorf("mathx: FFT2D shape %dx%d != len %d", rows, cols, len(x))
	}
	if len(x) == 0 {
		return nil
	}
	if rows&(rows-1) != 0 {
		return fmt.Errorf("mathx: FFT length %d is not a power of two", rows)
	}
	if cols&(cols-1) != 0 {
		return fmt.Errorf("mathx: FFT length %d is not a power of two", cols)
	}
	// Keep small transforms serial: a tile should carry a few thousand
	// elements before the fan-out is worth it.
	grain := 1 + 4096/cols
	// Rows.
	parallel.For(rows, grain, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			_ = FFT(x[r*cols:(r+1)*cols], inverse) // length pre-validated
		}
	})
	// Columns (gather/scatter through a buffer each tile owns).
	parallel.For(cols, 1+4096/rows, func(c0, c1 int) {
		col := make([]complex128, rows)
		for c := c0; c < c1; c++ {
			for r := 0; r < rows; r++ {
				col[r] = x[r*cols+c]
			}
			_ = FFT(col, inverse)
			for r := 0; r < rows; r++ {
				x[r*cols+c] = col[r]
			}
		}
	})
	return nil
}
