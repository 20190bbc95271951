package planning

import (
	"math"

	"sov/internal/canbus"
	"sov/internal/mathx"
)

// MPCConfig is empty: the horizon and step are the constants below.
//
// Deprecated: kept so the benchmark's calls of NewMPC compile (ROADMAP
// item 7).
type MPCConfig struct{}

// DefaultMPCConfig returns the empty MPCConfig.
func DefaultMPCConfig() MPCConfig { return MPCConfig{} }

// The deployed MPC: a 2-second horizon at 10 Hz, coarse enough for
// lane-granularity maneuvers and cheap enough for the ~3 ms planning budget
// of Fig. 10a; its iteration budget, cost weights and control limits.
const (
	horizon              = 20   // steps
	dt           float64 = 0.1  // seconds per step
	mpcIters             = 5    // gradient iterations
	eps          float64 = 1e-3 // finite-difference step of the gradient probes
	wSpeed       float64 = 1.0
	wLane        float64 = 2.0
	wHeading     float64 = 1.0
	wEffort      float64 = 0.1
	wObstacle    float64 = 30.0
	maxAccel     float64 = 2.0
	maxBrake     float64 = 4.0
	maxSteerRate float64 = 0.5
)

// safeDistance is the obstacle clearance both planners' costs enforce.
const safeDistance float64 = 2.0

// MPC is the production planner: gradient-based shooting over acceleration
// and steering-rate sequences with a quadratic tracking cost and an
// obstacle barrier.
type MPC struct {
	// warm-start buffers reused across cycles.
	accel, steer []float64
	// traj is the rollout buffer reused across cycles; each Plan's Traj
	// aliases it and stays valid until the next Plan call.
	traj []TrajPoint
	// trig holds, per horizon step, the heading the current control sequence
	// last rolled through and its sin, cos; cand is the same for a candidate
	// that moves steer[k], and replaces trig[k:] only if it is accepted.
	trig, cand []headingTrig
	// probe is the steer probe's memo: row k (probe[k*n:(k+1)*n], n the
	// horizon) holds the headings the probe of steer[k] last rolled through.
	probe []headingTrig
}

// headingTrig is one memoised math.Sincos result. It is keyed on the bit
// pattern of the heading, so a hit is the value Sincos would return whatever
// happened to the controls since it was stored, and -0 and +0 (whose
// sines differ in sign) stay apart.
type headingTrig struct {
	key      uint64
	sin, cos float64
}

// newTrigMemo returns n entries no finite heading hits. The empty entry is
// Sincos(NaN) itself, so even a NaN heading with that payload reads what
// Sincos returns; a zero-valued entry would be a false hit for h == 0.
func newTrigMemo(n int) []headingTrig {
	nan := math.NaN()
	memo := make([]headingTrig, n)
	for i := range memo {
		memo[i] = headingTrig{math.Float64bits(nan), nan, nan}
	}
	return memo
}

// NewMPC returns the deployed planner. The MPCConfig is ignored.
func NewMPC(MPCConfig) *MPC {
	return &MPC{
		accel: make([]float64, horizon),
		steer: make([]float64, horizon),
		traj:  make([]TrajPoint, horizon),
		trig:  newTrigMemo(horizon),
		cand:  newTrigMemo(horizon),
		probe: newTrigMemo(horizon * horizon),
	}
}

// rollState is the rollout before a horizon step: arc length, lateral
// offset, speed, heading error, and the cost accumulated over the steps
// already taken.
type rollState struct{ s, d, v, h, c float64 }

// trackCost adds one step's speed, lane and effort terms to c. It and
// obstacleCost are the per-step cost of every rollout; both stay within the
// inliner's budget (TestStructuralGuards).
func trackCost(c, v, d, a, w, target float64) float64 {
	dv := v - target
	c += wSpeed * dv * dv
	c += wLane * d * d
	c += wEffort * (a*a + 4*w*w)
	return c
}

// obstacleCost adds the barrier of every obstacle at time t to c.
func obstacleCost(c, s, d, t float64, obs []Obstacle) float64 {
	for _, o := range obs {
		ds := s - (o.S + o.VS*t)
		dd := d - (o.D + o.VD*t)
		clear := math.Sqrt(ds*ds+dd*dd) - o.Radius
		if clear < safeDistance {
			pen := safeDistance - clear
			c += wObstacle * pen * pen
		}
	}
	return c
}

// roll advances st over horizon steps [from, to) of the current control
// sequence without allocating: the rollout is fused into the cost
// accumulation (this runs thousands of times per planning cycle). Steps are
// evaluated strictly in order, so rolling [0,k) and then [k,n) gives the
// same bits as rolling [0,n) — which is what lets Plan resume a probe of
// control k from the state before step k.
//
// The heading recurrence depends on steer[] alone, so most rollouts of a
// sweep revisit headings an earlier one already took the sin and cos of:
// step k reuses memo[k] when it holds this exact heading and stores into it
// otherwise.
//
// The rollout returns early, after the step whose cost exceeds stop. Every
// cost term is ≥ 0 or NaN and rounded addition is monotone, so the full
// rollout's cost would not be below stop either.
func (m *MPC) roll(in Input, st rollState, from, to int, memo []headingTrig, stop float64) rollState {
	s, d, v, h, c := st.s, st.d, st.v, st.h, st.c
	for k := from; k < to; k++ {
		a, w := m.accel[k], m.steer[k]
		v = mathx.Clamp(v+a*dt, 0, 12)
		h = mathx.Clamp(h+w*dt, -2.5, 2.5)
		var sin, cos float64
		if e, key := &memo[k], math.Float64bits(h); e.key == key {
			sin, cos = e.sin, e.cos
		} else {
			if firstOctant(h) {
				sin, cos = sincosPoly(h)
			} else {
				sin, cos = math.Sincos(h)
			}
			*e = headingTrig{key, sin, cos}
		}
		s += v * cos * dt
		d += v * sin * dt
		c = trackCost(c, v, d, a, w, in.TargetSpeed)
		c = obstacleCost(c, s, d, dt*float64(k+1), in.Obstacles)
		if c > stop {
			break
		}
	}
	return rollState{s, d, v, h, c}
}

// costFrom evaluates the objective of the current control sequence given
// the rollout state before step k: the remaining steps plus the terminal
// heading alignment. A cost that exceeds stop may be returned short.
func (m *MPC) costFrom(in Input, st rollState, k int, memo []headingTrig, stop float64) float64 {
	st = m.roll(in, st, k, len(m.accel), memo, stop)
	return st.c + wHeading*st.h*st.h
}

// probes returns the costs of the two gradient probes of control k, which
// resume from pre, the rollout state before step k: accel[k]+eps (ca) and
// steer[k]+eps (cs). Both are rolled in one pass as two independent
// dependency chains, and each performs costFrom's operations in costFrom's
// order. Each perturbed control goes back by -eps, which may move it by an
// ulp, and the steer probe sees accel[k] after that round trip: the order
// in which the full-rollout oracle perturbs them. The accel probe's headings
// are the current sequence's and read trig; the steer probe's are its own
// and read its row of probe.
func (m *MPC) probes(in Input, pre rollState, k int) (ca, cs float64) {
	n := len(m.accel)
	// One length for every slice the loop indexes, so it has no bounds checks.
	accel, steer, trig, row := m.accel, m.steer[:n], m.trig[:n], m.probe[k*n:(k+1)*n]
	aa, ws := accel[k]+eps, steer[k]+eps
	accel[k] = aa - eps
	wk := ws - eps
	sa, da, va, ha, ca := pre.s, pre.d, pre.v, pre.h, pre.c // accel probe
	sw, dw, vw, hw, cs := pre.s, pre.d, pre.v, pre.h, pre.c // steer probe
	for j := k; j < n; j++ {
		a, w := accel[j], steer[j]
		if j > k {
			aa, ws = a, w
		}
		va = mathx.Clamp(va+aa*dt, 0, 12)
		ha = mathx.Clamp(ha+w*dt, -2.5, 2.5)
		vw = mathx.Clamp(vw+a*dt, 0, 12)
		hw = mathx.Clamp(hw+ws*dt, -2.5, 2.5)
		var sina, cosa, sinw, cosw float64
		if e, key := &trig[j], math.Float64bits(ha); e.key == key {
			sina, cosa = e.sin, e.cos
		} else {
			if firstOctant(ha) {
				sina, cosa = sincosPoly(ha)
			} else {
				sina, cosa = math.Sincos(ha)
			}
			*e = headingTrig{key, sina, cosa}
		}
		if e, key := &row[j], math.Float64bits(hw); e.key == key {
			sinw, cosw = e.sin, e.cos
		} else {
			if firstOctant(hw) {
				sinw, cosw = sincosPoly(hw)
			} else {
				sinw, cosw = math.Sincos(hw)
			}
			*e = headingTrig{key, sinw, cosw}
		}
		sa += va * cosa * dt
		da += va * sina * dt
		sw += vw * cosw * dt
		dw += vw * sinw * dt
		t := dt * float64(j+1)
		ca = trackCost(ca, va, da, aa, w, in.TargetSpeed)
		cs = trackCost(cs, vw, dw, a, ws, in.TargetSpeed)
		ca = obstacleCost(ca, sa, da, t, in.Obstacles)
		cs = obstacleCost(cs, sw, dw, t, in.Obstacles)
	}
	steer[k] = wk
	return ca + wHeading*ha*ha, cs + wHeading*hw*hw
}

// Plan runs one receding-horizon optimization and returns the first-step
// command. The optimizer is coordinate-wise numerical gradient descent with
// a fixed iteration budget — deterministic compute cost, as an embedded
// planner requires. A probe of control k leaves steps before k untouched,
// so each sweep carries the rollout state before step k forward and both
// probes resume from it in one pass instead of re-rolling the whole
// horizon; a candidate's rollout stops once it costs more than the current
// sequence; and every rollout reads its sin, cos from a heading memo.
func (m *MPC) Plan(in Input) Plan {
	n := len(m.accel) // the horizon
	// Warm start: shift the previous solution one step.
	copy(m.accel, m.accel[1:])
	copy(m.steer, m.steer[1:])

	inf := math.Inf(1)
	lr := 0.5
	start := rollState{d: in.LaneOffset, v: in.Speed, h: in.HeadingErr}
	base := m.costFrom(in, start, 0, m.trig, inf)
	for it := 0; it < mpcIters; it++ {
		improved := false
		pre := start // rollout state before step k
		for k := 0; k < n; k++ {
			// Numerical gradients for accel[k] and steer[k].
			ca, cs := m.probes(in, pre, k)
			ga := (ca - base) / eps
			gs := (cs - base) / eps

			na := mathx.Clamp(m.accel[k]-lr*ga, -maxBrake, maxAccel)
			ns := mathx.Clamp(m.steer[k]-lr*gs, -maxSteerRate, maxSteerRate)
			olda, olds := m.accel[k], m.steer[k]
			m.accel[k], m.steer[k] = na, ns
			// A candidate that keeps steer[k] stays on the heading track
			// trig holds; one that moves it rolls a new track into cand.
			moved, memo := ns != olds, m.trig
			if moved {
				memo = m.cand
			}
			c := m.costFrom(in, pre, k, memo, base)
			if c < base {
				base = c
				improved = true
				if moved {
					copy(m.trig[k:], m.cand[k:])
				}
			} else {
				m.accel[k], m.steer[k] = olda, olds
			}
			// Step k is settled for this sweep (the ±eps round trip may
			// have moved it by an ulp even when rejected): advance over it.
			// No later step of the sweep moves it, so the last sweep's
			// advance is the rollout of the final sequence: the trajectory.
			pre = m.roll(in, pre, k, k+1, m.trig, inf)
			m.traj[k] = TrajPoint{T: dt * float64(k+1), S: pre.s, D: pre.d}
		}
		if !improved {
			lr /= 2
			if lr < 1e-3 {
				break
			}
		}
	}

	traj := m.traj
	collides, _ := CollisionCheck(traj, in.Obstacles, 0.5)
	// Convert the first-step heading rate to a bicycle steering angle:
	// steer = atan(L * hdot / v).
	const wheelBase = 1.8
	v := math.Max(in.Speed, 0.5)
	plan := Plan{
		Cmd: canbus.Command{
			SteerRad:  mathx.Clamp(math.Atan(wheelBase*m.steer[0]/v), -0.55, 0.55),
			AccelMps2: m.accel[0],
		},
		Traj: traj,
		Cost: base,
	}
	if collides {
		// No safe trajectory found: command a full brake and flag it; the
		// reactive path is the backstop if this is too late.
		plan.Blocked = true
		plan.Cmd = canbus.Command{AccelMps2: -maxBrake}
	}
	return plan
}
