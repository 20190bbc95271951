// Package planning implements the planning module of the proactive path:
// a Model-Predictive-Control planner (Table III) operating at lane
// granularity — the reason planning contributes only ~1-2% of the end-to-end
// latency (Sec. V-C) — plus the compute-heavy EM-style planner (DP path
// search + QP smoothing, after Baidu Apollo) that the paper measures at
// ~33× the cost, constant-velocity obstacle prediction, and collision
// checking.
//
// Planning operates in lane (Frenet-like) coordinates: s along the lane,
// d lateral offset (positive left). The deployed cost weights, control
// limits, iteration budgets and EM lattice sizes are package constants;
// MPCConfig keeps only the horizon and step the callers vary.
package planning

import (
	"math"

	"sov/internal/canbus"
	"sov/internal/mathx"
)

// Obstacle is a planning-frame obstacle: position and velocity in lane
// coordinates (s along lane, d lateral), with a footprint radius.
type Obstacle struct {
	S, D   float64
	VS, VD float64
	Radius float64
}

// Input is one planning cycle's world view.
type Input struct {
	// Speed is the current longitudinal speed (m/s).
	Speed float64
	// LaneOffset is the current lateral offset from the lane center (m).
	LaneOffset float64
	// HeadingErr is the heading error relative to the lane direction.
	HeadingErr float64
	// TargetSpeed is the cruise set point.
	TargetSpeed float64
	// LaneWidth is the width of the current lane (m). Neither planner reads
	// it: the lane cost is quadratic in LaneOffset, with no edge term.
	LaneWidth float64
	// Obstacles ahead, in lane coordinates relative to the vehicle (S=0).
	Obstacles []Obstacle
}

// TrajPoint is one point of a planned trajectory.
type TrajPoint struct {
	T    float64 // seconds from now
	S, D float64 // lane coordinates relative to the plan origin
}

// Plan is a planner's output.
type Plan struct {
	Cmd  canbus.Command
	Traj []TrajPoint
	// Blocked reports that no safe plan at positive speed exists; the
	// command will be a braking command.
	Blocked bool
	// Cost is the optimized objective value (planner-specific scale).
	Cost float64
}

// CollisionCheck returns whether the trajectory comes within margin of any
// predicted obstacle, and the minimum clearance observed.
func CollisionCheck(traj []TrajPoint, obs []Obstacle, margin float64) (collides bool, minClear float64) {
	minClear = math.Inf(1)
	for _, p := range traj {
		for _, o := range obs {
			os := o.S + o.VS*p.T
			od := o.D + o.VD*p.T
			clear := math.Hypot(p.S-os, p.D-od) - o.Radius
			if clear < minClear {
				minClear = clear
			}
		}
	}
	if len(traj) == 0 || len(obs) == 0 {
		return false, minClear
	}
	return minClear < margin, minClear
}

// simulateInto rolls the planning model of MPC.roll forward (s' = v cos h,
// d' = v sin h, v' = a, h' = steer rate) and writes the trajectory into dst,
// which must have len(accel) points: the planner owns the buffer, so a plan
// allocates nothing.
func simulateInto(dst []TrajPoint, in Input, accel, steer []float64, dt float64) []TrajPoint {
	s, d, v, h := 0.0, in.LaneOffset, in.Speed, in.HeadingErr
	for k := range accel {
		v = mathx.Clamp(v+accel[k]*dt, 0, 12)
		h += steer[k] * dt
		h = mathx.Clamp(h, -2.5, 2.5)
		s += v * math.Cos(h) * dt
		d += v * math.Sin(h) * dt
		dst[k] = TrajPoint{T: dt * float64(k+1), S: s, D: d}
	}
	return dst
}
