// Package models implements the paper's generic analytical design-constraint
// models (Sec. III): the end-to-end latency model (Eq. 1, Fig. 2/3a), the
// energy / driving-time model (Eq. 2, Fig. 3b, Table I), and the vehicle
// cost model (Table II). These are the quantitative tools the paper uses to
// reason about any autonomous vehicle; the concrete parameter sets measured
// from the deployed micromobility vehicles are provided as defaults.
package models

import (
	"fmt"
	"math"
	"time"
)

// LatencyModel captures Eq. 1: the end-to-end chain from "new event sensed"
// to "vehicle fully stopped" (Fig. 2).
//
//	(Tcomp + Tdata + Tmech) * v + 1/2 * a * Tstop²  <= D,  Tstop = v/a
type LatencyModel struct {
	// Speed is the vehicle speed v in m/s.
	Speed float64
	// BrakeDecel is the brake deceleration a in m/s² (positive).
	BrakeDecel float64
	// MechLatency is Tmech, the time for the mechanical components to
	// start reacting.
	MechLatency time.Duration
}

// DataLatency is Tdata, the CAN-bus transmission latency of the deployed
// vehicles (≈ 1 ms).
const DataLatency = 1 * time.Millisecond

// DefaultLatencyModel returns the parameters measured from the deployed
// vehicles: v = 5.6 m/s, a = 4 m/s², Tdata ≈ 1 ms, Tmech ≈ 19 ms.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		Speed:       5.6,
		BrakeDecel:  4.0,
		MechLatency: 19 * time.Millisecond,
	}
}

// StopTime returns Tstop = v/a (Eq. 1b).
func (m LatencyModel) StopTime() time.Duration {
	return time.Duration(m.Speed / m.BrakeDecel * float64(time.Second))
}

// BrakingDistance returns 1/2*a*Tstop² = v²/(2a), the theoretical
// lower-bound of obstacle avoidance (4 m at the default parameters).
func (m LatencyModel) BrakingDistance() float64 {
	return m.Speed * m.Speed / (2 * m.BrakeDecel)
}

// StoppingDistance returns the total distance traveled between the event
// being sensed and the vehicle standing still, for a given computing
// latency (the left-hand side of Eq. 1a).
func (m LatencyModel) StoppingDistance(tcomp time.Duration) float64 {
	reaction := tcomp + DataLatency + m.MechLatency
	return reaction.Seconds()*m.Speed + m.BrakingDistance()
}

// ComputingBudget inverts Eq. 1a: the maximum allowed Tcomp for avoiding an
// object first sensed at distance d meters. A negative result means the
// object is inside the braking-distance floor and cannot be avoided by any
// computing system (Fig. 3a's left edge).
func (m LatencyModel) ComputingBudget(d float64) time.Duration {
	slack := (d - m.BrakingDistance()) / m.Speed
	budget := time.Duration(slack*float64(time.Second)) - DataLatency - m.MechLatency
	return budget
}

// AvoidableDistance returns the minimum object distance that a computing
// latency tcomp can still avoid (the paper: 164 ms → 5 m, 740 ms → 8.3 m,
// reactive path 30 ms → 4.1 m... sic, including data+mech).
func (m LatencyModel) AvoidableDistance(tcomp time.Duration) float64 {
	return m.StoppingDistance(tcomp)
}

// ComputeShare returns Tcomp / (Tcomp + Tdata + Tmech): the fraction of the
// pre-braking end-to-end latency attributable to the computing system (the
// paper reports 88% at the mean 164 ms).
func (m LatencyModel) ComputeShare(tcomp time.Duration) float64 {
	total := tcomp + DataLatency + m.MechLatency
	if total == 0 {
		return 0
	}
	return float64(tcomp) / float64(total)
}

// Validate reports whether the model parameters are physically meaningful.
func (m LatencyModel) Validate() error {
	if m.Speed <= 0 {
		return fmt.Errorf("models: speed %v must be positive", m.Speed)
	}
	if m.BrakeDecel <= 0 {
		return fmt.Errorf("models: brake deceleration %v must be positive", m.BrakeDecel)
	}
	if m.MechLatency < 0 {
		return fmt.Errorf("models: negative latency components")
	}
	return nil
}

// RequirementPoint is one <distance, budget> sample of the Fig. 3a curve.
type RequirementPoint struct {
	Distance float64       // object distance in meters
	Budget   time.Duration // max allowed computing latency
}

// RequirementCurve samples the Fig. 3a curve over [dMin, dMax] with n
// points (n >= 2).
func (m LatencyModel) RequirementCurve(dMin, dMax float64, n int) []RequirementPoint {
	if n < 2 {
		n = 2
	}
	pts := make([]RequirementPoint, n)
	for i := 0; i < n; i++ {
		d := dMin + (dMax-dMin)*float64(i)/float64(n-1)
		pts[i] = RequirementPoint{Distance: d, Budget: m.ComputingBudget(d)}
	}
	return pts
}

// SpeedForBudget answers the dual question: given a fixed computing latency
// and object distance, what is the maximum safe speed? Solved from Eq. 1a:
// v²/(2a) + v*T - d = 0.
func (m LatencyModel) SpeedForBudget(tcomp time.Duration, d float64) float64 {
	t := (tcomp + DataLatency + m.MechLatency).Seconds()
	a := m.BrakeDecel
	// v = a*(-T + sqrt(T² + 2d/a))
	disc := t*t + 2*d/a
	v := a * (-t + math.Sqrt(disc))
	if v < 0 {
		return 0
	}
	return v
}
