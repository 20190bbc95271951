package sim

import (
	"math"
	"math/rand"

	"sov/internal/mathx"
)

// RNG wraps math/rand with the distributions the SoV latency models need.
// Every subsystem takes an explicit *RNG so whole runs are reproducible from
// a single seed.
type RNG struct {
	*rand.Rand
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream; used to give each sensor or
// pipeline stage its own stream so adding a component does not perturb the
// draws of the others.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Int63())
}

// Normal draws from N(mean, std²).
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// TruncNormal draws from N(mean, std²) truncated to [lo, hi] by clamping;
// adequate for latency jitter where the tails are re-shaped anyway.
func (r *RNG) TruncNormal(mean, std, lo, hi float64) float64 {
	v := r.Normal(mean, std)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// LogNormal draws from a log-normal with the given location (mu) and scale
// (sigma) of the underlying normal. Latency long tails (Fig. 10a) use this.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential draws from Exp(1/mean).
func (r *RNG) Exponential(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// Uniform draws from U[lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return mathx.Lerp(lo, hi, r.Float64())
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
