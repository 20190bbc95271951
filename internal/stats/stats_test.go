package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	s := NewSample()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Observe(v)
	}
	if s.N() != 5 {
		t.Fatalf("n = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Median() != 3 {
		t.Fatalf("median = %v", s.Median())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Std()-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("std = %v", s.Std())
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := NewSample()
	s.Observe(0)
	s.Observe(10)
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("q50 = %v", got)
	}
	if got := s.Quantile(0.25); got != 2.5 {
		t.Fatalf("q25 = %v", got)
	}
	if got := s.Quantile(-1); got != 0 {
		t.Fatalf("q<0 = %v", got)
	}
	if got := s.Quantile(2); got != 10 {
		t.Fatalf("q>1 = %v", got)
	}
}

func TestEmptySample(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.Std() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty sample should return zeros")
	}
	sm := s.Summarize()
	if sm.N != 0 {
		t.Fatal("empty summary N")
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(vals []float64) bool {
		s := NewSample()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Observe(v)
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObserveAfterQuantile(t *testing.T) {
	s := NewSample()
	s.Observe(5)
	_ = s.Median()
	s.Observe(1) // must re-sort
	if s.Min() != 1 {
		t.Fatalf("min after re-observe = %v", s.Min())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0.5, 1, 3, 3.9, 9.9, -5, 50} {
		h.Observe(v)
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
	// -5 clamps into bin 0; 50 clamps into bin 4.
	if h.Counts[0] != 3 { // 0.5, 1, -5
		t.Fatalf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9.9, 50
		t.Fatalf("bin4 = %d", h.Counts[4])
	}
	if h.BinCenter(0) != 1 {
		t.Fatalf("bin center = %v", h.BinCenter(0))
	}
	if h.Render(20) == "" {
		t.Fatal("render empty")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestWelfordMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSample()
	var w Welford
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64()*3 + 7
		s.Observe(v)
		w.Observe(v)
	}
	if math.Abs(s.Mean()-w.Mean()) > 1e-9 {
		t.Fatalf("mean mismatch %v vs %v", s.Mean(), w.Mean())
	}
	if w.N() != 10000 {
		t.Fatalf("n = %d", w.N())
	}
}

func TestSummaryString(t *testing.T) {
	s := NewSample()
	s.Observe(1)
	if s.Summarize().String() == "" {
		t.Fatal("empty string")
	}
}
