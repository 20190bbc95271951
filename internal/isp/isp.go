// Package isp models the camera data path between the sensor interface and
// the application: ISP processing, kernel/driver, DRAM staging, and
// user-space delivery. Its defining property — variable, non-deterministic
// per-stage latency — is both a large share of the SoV's sensing latency
// (Fig. 10a) and the reason software-only sensor synchronization fails
// (Fig. 12b): by the time a frame reaches the application, its arrival time
// says little about its capture time.
package isp

import (
	"time"

	"sov/internal/sim"
)

// Stage is one hop of the camera pipeline with a base latency and jitter.
type Stage struct {
	Name string
	// Base is the constant part of the stage latency.
	Base time.Duration
	// JitterStd is the standard deviation of the variable part.
	JitterStd time.Duration
	// TailProb/TailScale add a long tail: with TailProb, an extra
	// exponential delay of mean TailScale is incurred (GC pause, page
	// fault, scheduler preemption).
	TailProb  float64
	TailScale time.Duration
}

// stages is the deployed camera pipeline in traversal order, calibrated so
// that sensing (exposure+readout upstream plus this pipeline) averages
// ≈84 ms — about half of the 164 ms mean computing latency — with a long
// tail, and so the ISP stage alone varies by ~10 ms as the paper reports.
var stages = []Stage{
	{Name: "sensor-interface", Base: 1 * time.Millisecond, JitterStd: 200 * time.Microsecond},
	{Name: "isp", Base: 28 * time.Millisecond, JitterStd: 4 * time.Millisecond,
		TailProb: 0.02, TailScale: 10 * time.Millisecond},
	{Name: "kernel-driver", Base: 14 * time.Millisecond, JitterStd: 3 * time.Millisecond,
		TailProb: 0.03, TailScale: 20 * time.Millisecond},
	{Name: "dram-copy", Base: 6 * time.Millisecond, JitterStd: 1 * time.Millisecond},
	{Name: "app-delivery", Base: 15 * time.Millisecond, JitterStd: 5 * time.Millisecond,
		TailProb: 0.05, TailScale: 60 * time.Millisecond},
}

// StageDelay draws one latency for a stage.
func (s Stage) StageDelay(rng *sim.RNG) time.Duration {
	d := s.Base + time.Duration(rng.TruncNormal(0, float64(s.JitterStd), -float64(s.JitterStd), 4*float64(s.JitterStd)))
	if s.TailProb > 0 && rng.Bernoulli(s.TailProb) {
		d += time.Duration(rng.Exponential(float64(s.TailScale)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Trace is the per-stage latency breakdown of one frame's traversal.
type Trace struct {
	Delays []time.Duration
	Total  time.Duration
}

// Deliver draws the traversal latency of one frame through the pipeline.
func Deliver(rng *sim.RNG) Trace {
	return DeliverInto(make([]time.Duration, 0, len(stages)), rng)
}

// DeliverInto is Deliver writing the per-stage breakdown into a reused
// buffer (truncated, then appended to), so per-frame draws don't allocate.
func DeliverInto(delays []time.Duration, rng *sim.RNG) Trace {
	t := Trace{Delays: delays[:0]}
	for _, s := range stages {
		d := s.StageDelay(rng)
		t.Delays = append(t.Delays, d)
		t.Total += d
	}
	return t
}

// InterfaceDelay returns the latency up to and including the sensor
// interface — the point where the hardware-collaborative design timestamps
// frames. Everything after it is the variable region software-only sync
// cannot compensate.
func InterfaceDelay(rng *sim.RNG) time.Duration {
	return stages[0].StageDelay(rng)
}
