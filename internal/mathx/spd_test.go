package mathx

import (
	"math/rand"
	"testing"
)

func TestCholeskySolve(t *testing.T) {
	// SPD matrix a = L*Lt with known solution.
	a := []float64{
		4, 2, 0.6,
		2, 5, 1.2,
		0.6, 1.2, 3,
	}
	xTrue := []float64{1, -2, 0.5}
	x := make([]float64, 3)
	for i := range x {
		for j, v := range xTrue {
			x[i] += a[i*3+j] * v
		}
	}
	if !SolveSPD(a, make([]float64, 9), x) {
		t.Fatal("SPD matrix rejected")
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, xTrue)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := []float64{1, 2, 2, 1} // eigenvalues 3, -1
	x := []float64{1, 2}
	if SolveSPD(a, make([]float64, 4), x) {
		t.Fatal("expected indefinite matrix to be rejected")
	}
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("rejected solve wrote x = %v", x)
	}
}

// TestInvertSPD inverts an SPD matrix column by column, as the VIO filter
// inverts its innovation covariance.
func TestInvertSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 6
	// Build SPD: B*Bt + n*I.
	var b, a, inv, l [n * n]float64
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				a[i*n+j] += b[i*n+k] * b[j*n+k]
			}
		}
		a[i*n+i] += n
	}
	for j := 0; j < n; j++ {
		var col [n]float64
		col[j] = 1
		if !SolveSPD(a[:], l[:], col[:]) {
			t.Fatal("SPD matrix rejected")
		}
		for i := range col {
			inv[i*n+j] = col[i]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want, got := 0.0, 0.0
			if i == j {
				want = 1
			}
			for k := 0; k < n; k++ {
				got += a[i*n+k] * inv[k*n+j]
			}
			if !almostEq(got, want, 1e-9) {
				t.Fatalf("a*inv(a)[%d][%d] = %v", i, j, got)
			}
		}
	}
}

func TestSolveSPDDimMismatch(t *testing.T) {
	for _, c := range []struct{ a, l, x int }{{9, 9, 2}, {9, 4, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d-float matrix, %d-float scratch, %d-vector: expected a panic", c.a, c.l, c.x)
				}
			}()
			SolveSPD(make([]float64, c.a), make([]float64, c.l), make([]float64, c.x))
		}()
	}
}
