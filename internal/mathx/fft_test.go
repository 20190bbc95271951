package mathx

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := FFT(x, false); err != nil {
			t.Fatal(err)
		}
		if err := FFT(x, true); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d roundtrip mismatch at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTKnownImpulse(t *testing.T) {
	// FFT of a unit impulse is flat ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x, false); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v", i, v)
		}
	}
}

func TestFFTKnownSinusoid(t *testing.T) {
	// A pure tone at bin k concentrates energy at k and n-k.
	n, k := 32, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(k*i)/float64(n)), 0)
	}
	if err := FFT(x, false); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k || i == n-k {
			if math.Abs(mag-float64(n)/2) > 1e-9 {
				t.Fatalf("bin %d magnitude = %v, want %v", i, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Fatalf("leakage at bin %d: %v", i, mag)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := FFT(make([]complex128, 12), false); err == nil {
		t.Fatal("expected error for n=12")
	}
	if err := FFT(nil, false); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows, cols := 16, 8
	x := make([]complex128, rows*cols)
	orig := make([]complex128, rows*cols)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
		orig[i] = x[i]
	}
	if err := FFT2D(x, rows, cols, false); err != nil {
		t.Fatal(err)
	}
	if err := FFT2D(x, rows, cols, true); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D roundtrip mismatch at %d", i)
		}
	}
}

func TestFFT2DParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows, cols := 8, 8
	x := make([]complex128, rows*cols)
	var spatial float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		spatial += real(x[i] * cmplx.Conj(x[i]))
	}
	if err := FFT2D(x, rows, cols, false); err != nil {
		t.Fatal(err)
	}
	var freq float64
	for i := range x {
		freq += real(x[i] * cmplx.Conj(x[i]))
	}
	freq /= float64(rows * cols)
	if math.Abs(spatial-freq) > 1e-9*spatial {
		t.Fatalf("Parseval violated: %v vs %v", spatial, freq)
	}
}

func BenchmarkFFT1K(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FFT(x, false)
		_ = FFT(x, true)
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 64
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := 0; i < n; i++ {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		sum[i] = 2*a[i] + 3*b[i]
	}
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	fs := append([]complex128(nil), sum...)
	if err := FFT(fa, false); err != nil {
		t.Fatal(err)
	}
	if err := FFT(fb, false); err != nil {
		t.Fatal(err)
	}
	if err := FFT(fs, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 2*fa[i] + 3*fb[i]
		if cmplx.Abs(fs[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}
