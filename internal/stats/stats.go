// Package stats provides the summary statistics used throughout the SoV
// characterization: percentile summaries (Fig. 10), histograms (Fig. 4a),
// and streaming mean/variance accumulators.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates observations and answers order statistics. It keeps the
// raw values; the SoV characterization runs are small enough (thousands of
// frames) that exact percentiles are preferable to sketches.
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns an empty sample.
func NewSample() *Sample { return &Sample{} }

// Observe records one value. A full buffer doubles, so a sample allocates
// 2–4× the bytes of the values it keeps (2.6× at 100 000 values); append
// grows a large slice by about 1.25× and allocates more.
func (s *Sample) Observe(v float64) {
	if len(s.values) == cap(s.values) {
		grown := make([]float64, len(s.values), max(2*cap(s.values), 16))
		copy(grown, s.values)
		s.values = grown
	}
	s.values = append(s.values, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Std returns the population standard deviation.
func (s *Sample) Std() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (q in [0,1]) by linear interpolation.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	if q <= 0 {
		return s.values[0]
	}
	if q >= 1 {
		return s.values[len(s.values)-1]
	}
	pos := q * float64(len(s.values)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.values[lo]
	}
	frac := pos - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Summary is a fixed set of order statistics for reporting.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Median, Max float64
	P90, P99         float64
}

// Summarize computes the Summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		Std:    s.Std(),
		Min:    s.Min(),
		Median: s.Median(),
		Max:    s.Max(),
		P90:    s.Quantile(0.90),
		P99:    s.Quantile(0.99),
	}
}

// String formats the summary on one line (values as-is, caller picks units).
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		sm.N, sm.Mean, sm.Std, sm.Min, sm.Median, sm.P90, sm.P99, sm.Max)
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi); values outside the
// range are clamped into the first/last bin so no observation is lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) bins=%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := int(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Render draws a terminal bar chart, one row per bin, scaled to width.
func (h *Histogram) Render(width int) string {
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/maxC)
		fmt.Fprintf(&b, "%10.1f | %-*s %d\n", h.BinCenter(i), width, bar, c)
	}
	return b.String()
}

// Welford is a streaming mean accumulator for long simulations where
// retaining raw values is unnecessary.
type Welford struct {
	n    int
	mean float64
}

// Observe records one value.
func (w *Welford) Observe(v float64) {
	w.n++
	w.mean += (v - w.mean) / float64(w.n)
}

// N returns the observation count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }
