package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is one or two outliers and
// does not repeat between runs.
const minBeyond = 10

// quantile returns the q-quantile (0..1) of an ascending-sorted sample by
// linear interpolation, and whether at least minBeyond samples lie strictly
// beyond it. An empty sample yields (0, false).
func quantile(sorted []float64, q float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v = sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
	return v, n-1-hi >= minBeyond
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	v, _ := quantile(sortedCopy(xs), 0.5)
	return v
}

// iqrShare is the distance between the first and third quartile as a share
// of the median — the spread measure the regression bounds are set against.
// It uses the same "exclusive" quartile method as Python's
// statistics.quantiles(n=4), so the number matches what a harness computes
// over repeated runs. Fewer than four values say nothing about quartiles
// and yield 0.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// sum returns the total of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
