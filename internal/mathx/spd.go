package mathx

import (
	"fmt"
	"math"
)

// SolveSPD solves a·x = b for a symmetric positive-definite n×n matrix a,
// row-major, where n = len(x): x holds b on entry and the solution on
// return. It factors a = L·Lᵀ (Cholesky) into l, the caller's n×n
// scratch, then substitutes forward and back in x, so it allocates
// nothing. It reports false, leaving x unchanged, when a is not
// (numerically) positive definite.
func SolveSPD(a, l, x []float64) bool {
	n := len(x)
	if len(a) != n*n || len(l) < n*n {
		panic(fmt.Sprintf("mathx: SolveSPD of a %d-vector with a %d-float matrix and %d-float scratch", n, len(a), len(l)))
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 {
					return false
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	// Forward substitution L·y = b, then back substitution Lᵀ·x = y.
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return true
}
