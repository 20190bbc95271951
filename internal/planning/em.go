package planning

import (
	"math"

	"sov/internal/canbus"
	"sov/internal/mathx"
)

// EMConfig sizes the EM-style planner's lattices. The defaults follow the
// Apollo EM Motion Planner's structure — dense station-lateral DP for the
// path, quadratic-programming smoothing, then station-time DP for speed,
// and QP smoothing again — which is what makes it ~33× more expensive than
// the lane-granularity MPC (Sec. V-C).
type EMConfig struct {
	// Stations is the number of longitudinal samples over the horizon.
	Stations int
	// StationStep is the spacing in meters.
	StationStep float64
	// Laterals is the number of lateral offsets per station.
	Laterals int
	// LateralSpan is the +/- lateral range in meters.
	LateralSpan float64
	// SpeedLevels discretizes speed for the speed-DP.
	SpeedLevels int
	// QPIters is the Gauss-Seidel iteration count for each smoothing pass.
	QPIters int
	// SafeDistance is the required obstacle clearance.
	SafeDistance float64
}

// DefaultEMConfig plans 60 m ahead at centimeter-class smoothing effort.
func DefaultEMConfig() EMConfig {
	return EMConfig{
		Stations: 80, StationStep: 0.75,
		Laterals: 31, LateralSpan: 3.0,
		SpeedLevels: 48, QPIters: 1200,
		SafeDistance: 2.0,
	}
}

// EMPlanner is the DP+QP baseline.
type EMPlanner struct {
	Cfg EMConfig
}

// NewEMPlanner returns a planner with the given configuration.
func NewEMPlanner(cfg EMConfig) *EMPlanner { return &EMPlanner{Cfg: cfg} }

// Plan runs the full E-step/M-step pipeline: path DP, path QP, speed DP,
// speed QP, then emits the first-step command.
func (e *EMPlanner) Plan(in Input) Plan {
	cfg := e.Cfg
	path := e.pathDP(in)
	path = e.qpSmooth(path, 0.4)
	speeds, blocked := e.speedDP(in, path)
	speeds = e.qpSmooth(speeds, 0.2)

	// Assemble the trajectory (time from speeds, lateral from path).
	traj := make([]TrajPoint, cfg.Stations)
	t := 0.0
	for i := 0; i < cfg.Stations; i++ {
		v := speeds[i]
		if v < 0.1 {
			v = 0.1
		}
		t += cfg.StationStep / v
		traj[i] = TrajPoint{T: t, S: cfg.StationStep * float64(i+1), D: path[i]}
	}

	// The DP penalties are soft; a least-cost trajectory that still
	// collides means the scene is infeasible.
	if hit, _ := CollisionCheck(traj, in.Obstacles, 0.3); hit {
		blocked = true
	}

	// First-step command.
	accel := (speeds[0] - in.Speed) / math.Max(traj[0].T, 0.05)
	accel = mathx.Clamp(accel, -4, 2)
	headingTo := math.Atan2(path[0]-in.LaneOffset, cfg.StationStep)
	steer := mathx.Clamp(headingTo-in.HeadingErr, -0.55, 0.55)
	plan := Plan{
		Cmd:     canbus.Command{SteerRad: steer, AccelMps2: accel},
		Traj:    traj,
		Blocked: blocked,
	}
	if blocked {
		plan.Cmd = canbus.Command{AccelMps2: -4}
	}
	return plan
}

// pathDP searches the station-lateral lattice for the cheapest path.
func (e *EMPlanner) pathDP(in Input) []float64 {
	cfg := e.Cfg
	nL := cfg.Laterals
	lat := func(j int) float64 {
		return -cfg.LateralSpan + 2*cfg.LateralSpan*float64(j)/float64(nL-1)
	}
	// cost[i][j]: best cost to reach station i, lateral j.
	cost := make([][]float64, cfg.Stations)
	from := make([][]int, cfg.Stations)
	for i := range cost {
		cost[i] = make([]float64, nL)
		from[i] = make([]int, nL)
	}
	obstaclePenalty := func(s, d float64) float64 {
		p := 0.0
		for _, o := range in.Obstacles {
			// Static view of obstacles for the path E-step (the speed
			// step handles dynamics), matching the EM decomposition.
			clear := math.Hypot(s-o.S, d-o.D) - o.Radius
			if clear < cfg.SafeDistance {
				pen := cfg.SafeDistance - clear
				p += 50 * pen * pen
			}
		}
		return p
	}
	for j := 0; j < nL; j++ {
		d := lat(j)
		dd := d - in.LaneOffset
		cost[0][j] = d*d + 4*dd*dd + obstaclePenalty(cfg.StationStep, d)
	}
	for i := 1; i < cfg.Stations; i++ {
		s := cfg.StationStep * float64(i+1)
		for j := 0; j < nL; j++ {
			d := lat(j)
			best := math.Inf(1)
			bestK := 0
			for k := 0; k < nL; k++ {
				trans := lat(j) - lat(k)
				c := cost[i-1][k] + 8*trans*trans
				if c < best {
					best = c
					bestK = k
				}
			}
			cost[i][j] = best + d*d + obstaclePenalty(s, d)
			from[i][j] = bestK
		}
	}
	// Backtrack.
	bestJ := 0
	for j := 1; j < nL; j++ {
		if cost[cfg.Stations-1][j] < cost[cfg.Stations-1][bestJ] {
			bestJ = j
		}
	}
	path := make([]float64, cfg.Stations)
	for i := cfg.Stations - 1; i >= 0; i-- {
		path[i] = lat(bestJ)
		bestJ = from[i][bestJ]
	}
	return path
}

// speedDP assigns a speed per station with dynamic obstacles respected.
func (e *EMPlanner) speedDP(in Input, path []float64) (speeds []float64, blocked bool) {
	cfg := e.Cfg
	nV := cfg.SpeedLevels
	vmax := math.Max(in.TargetSpeed*1.2, 1)
	level := func(j int) float64 { return vmax * float64(j) / float64(nV-1) }

	cost := make([][]float64, cfg.Stations)
	from := make([][]int, cfg.Stations)
	times := make([][]float64, cfg.Stations)
	for i := range cost {
		cost[i] = make([]float64, nV)
		from[i] = make([]int, nV)
		times[i] = make([]float64, nV)
		for j := range cost[i] {
			cost[i][j] = math.Inf(1)
		}
	}
	dynPenalty := func(s, d, t float64) float64 {
		p := 0.0
		for _, o := range in.Obstacles {
			os := o.S + o.VS*t
			od := o.D + o.VD*t
			clear := math.Hypot(s-os, d-od) - o.Radius
			if clear < cfg.SafeDistance {
				pen := cfg.SafeDistance - clear
				p += 100 * pen * pen
			}
		}
		return p
	}
	for j := 0; j < nV; j++ {
		v := level(j)
		dv0 := v - in.Speed
		if math.Abs(dv0) > 2.5 {
			continue // respect accel limits from the current speed
		}
		t := cfg.StationStep / math.Max(v, 0.1)
		dv := v - in.TargetSpeed
		cost[0][j] = dv*dv + dynPenalty(cfg.StationStep, path[0], t) + dv0*dv0
		times[0][j] = t
	}
	for i := 1; i < cfg.Stations; i++ {
		s := cfg.StationStep * float64(i+1)
		for j := 0; j < nV; j++ {
			v := level(j)
			for k := 0; k < nV; k++ {
				if math.IsInf(cost[i-1][k], 1) {
					continue
				}
				dv := v - level(k)
				if math.Abs(dv) > 2.0 { // accel limit per station
					continue
				}
				t := times[i-1][k] + cfg.StationStep/math.Max(v, 0.1)
				dvt := v - in.TargetSpeed
				c := cost[i-1][k] + dvt*dvt + 2*dv*dv + dynPenalty(s, path[i], t)
				if c < cost[i][j] {
					cost[i][j] = c
					from[i][j] = k
					times[i][j] = t
				}
			}
		}
	}
	bestJ, bestC := 0, math.Inf(1)
	for j := 0; j < nV; j++ {
		if cost[cfg.Stations-1][j] < bestC {
			bestC = cost[cfg.Stations-1][j]
			bestJ = j
		}
	}
	speeds = make([]float64, cfg.Stations)
	if math.IsInf(bestC, 1) {
		return speeds, true // no feasible profile: stop
	}
	for i := cfg.Stations - 1; i >= 0; i-- {
		speeds[i] = level(bestJ)
		bestJ = from[i][bestJ]
	}
	// A profile that has to crawl immediately counts as blocked.
	if speeds[0] < 0.3 && in.TargetSpeed > 1 {
		blocked = true
	}
	return speeds, blocked
}

// qpSmooth minimizes sum (x_i - ref_i)^2 + w*sum (x_{i+1}-2x_i+x_{i-1})^2
// by Gauss–Seidel sweeps — the "QP" M-step.
func (e *EMPlanner) qpSmooth(ref []float64, w float64) []float64 {
	n := len(ref)
	x := make([]float64, n)
	copy(x, ref)
	for it := 0; it < e.Cfg.QPIters; it++ {
		for i := 1; i < n-1; i++ {
			// d/dx_i of the objective = 0 solved for x_i.
			x[i] = (ref[i] + w*2*(x[i-1]+x[i+1])) / (1 + 4*w)
		}
	}
	return x
}
