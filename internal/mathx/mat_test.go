package mathx

import (
	"math/rand"
	"testing"
)

func TestMatMulIdentity(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	got := MatMul(a, Eye(2))
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatalf("a*I != a: %v", got.Data)
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := MatFromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := MatMul(a, b)
	want := MatFromRows([][]float64{{58, 64}, {139, 154}})
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("matmul = %v, want %v", got.Data, want.Data)
		}
	}
}

func TestMatTranspose(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", at.Data)
	}
}

func TestMatAddSub(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatFromRows([][]float64{{4, 3}, {2, 1}})
	s := MatAdd(a, b)
	for _, v := range s.Data {
		if v != 5 {
			t.Fatalf("add = %v", s.Data)
		}
	}
	d := MatSub(s, b)
	for i := range d.Data {
		if d.Data[i] != a.Data[i] {
			t.Fatalf("sub = %v", d.Data)
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix a = L*Lt with known solution.
	a := MatFromRows([][]float64{
		{4, 2, 0.6},
		{2, 5, 1.2},
		{0.6, 1.2, 3},
	})
	xTrue := []float64{1, -2, 0.5}
	b := a.MulVec(xTrue)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, xTrue)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestInvertSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 6
	// Build SPD: B*Bt + n*I.
	b := NewMat(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := MatMul(b, b.T())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	inv, err := InvertSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := MatMul(a, inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-9) {
				t.Fatalf("a*inv(a)[%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestSymmetrize(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {4, 3}})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("symmetrize = %v", a.Data)
	}
}

func TestMatPanicsOnBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMat(2, 3), NewMat(2, 3))
}

func TestSolveSPDDimMismatch(t *testing.T) {
	a := Eye(3)
	if _, err := SolveSPD(a, []float64{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestMulVecKnown(t *testing.T) {
	a := MatFromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got := a.MulVec([]float64{1, 2, 3})
	if got[0] != 7 || got[1] != 6 {
		t.Fatalf("mulvec = %v", got)
	}
}
