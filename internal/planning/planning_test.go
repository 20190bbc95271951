package planning

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sov/internal/canbus"
	"sov/internal/mathx"
)

func cruiseInput() Input {
	return Input{Speed: 5.6, TargetSpeed: 5.6, LaneWidth: 3}
}

func TestMPCCruisesAtTargetSpeed(t *testing.T) {
	m := NewMPC(DefaultMPCConfig())
	p := m.Plan(cruiseInput())
	if p.Blocked {
		t.Fatal("empty road should not block")
	}
	if math.Abs(p.Cmd.AccelMps2) > 0.5 {
		t.Fatalf("cruise accel = %v, want ~0", p.Cmd.AccelMps2)
	}
	if math.Abs(p.Cmd.SteerRad) > 0.1 {
		t.Fatalf("cruise steer = %v, want ~0", p.Cmd.SteerRad)
	}
}

func TestMPCAcceleratesWhenSlow(t *testing.T) {
	m := NewMPC(DefaultMPCConfig())
	in := cruiseInput()
	in.Speed = 2
	p := m.Plan(in)
	if p.Cmd.AccelMps2 <= 0.2 {
		t.Fatalf("accel = %v, want positive", p.Cmd.AccelMps2)
	}
}

func TestMPCBrakesForBlockingObstacle(t *testing.T) {
	m := NewMPC(DefaultMPCConfig())
	in := cruiseInput()
	// Stopped obstacle dead ahead at 6 m, spanning the lane.
	in.Obstacles = []Obstacle{{S: 6, D: 0, Radius: 1.5}}
	p := m.Plan(in)
	if p.Cmd.AccelMps2 >= 0 {
		t.Fatalf("accel = %v, want braking", p.Cmd.AccelMps2)
	}
}

func TestMPCSteersAroundOffsetObstacle(t *testing.T) {
	m := NewMPC(DefaultMPCConfig())
	in := cruiseInput()
	// Narrow obstacle slightly right of center 10 m ahead: swerve left.
	in.Obstacles = []Obstacle{{S: 10, D: -0.3, Radius: 0.4}}
	// Run a few cycles to warm-start.
	var p Plan
	for i := 0; i < 3; i++ {
		p = m.Plan(in)
	}
	lateralAt10 := 0.0
	for _, tp := range p.Traj {
		if tp.S >= 9 && tp.S <= 11 && math.Abs(tp.D) > math.Abs(lateralAt10) {
			lateralAt10 = tp.D
		}
	}
	if lateralAt10 < 0.2 {
		t.Fatalf("planned lateral at obstacle = %v, want leftward evasion", lateralAt10)
	}
}

func TestMPCRecentersOnLane(t *testing.T) {
	m := NewMPC(DefaultMPCConfig())
	in := cruiseInput()
	in.LaneOffset = 1.0
	p := m.Plan(in)
	// The trajectory should drive the lateral offset down.
	last := p.Traj[len(p.Traj)-1]
	if math.Abs(last.D) >= 0.9 {
		t.Fatalf("final lateral offset = %v, want re-centered", last.D)
	}
}

func TestEMPlannerCruise(t *testing.T) {
	e := NewEMPlanner()
	p := e.Plan(cruiseInput())
	if p.Blocked {
		t.Fatal("empty road should not block")
	}
	// Speed profile should hold near target: each station's speed is its
	// spacing over the time taken to cover it.
	for i := 2; i < len(p.Traj); i++ {
		cur, prev := p.Traj[i], p.Traj[i-1]
		if v := (cur.S - prev.S) / (cur.T - prev.T); math.Abs(v-5.6) > 1.5 {
			t.Fatalf("EM speed at s=%v is %v, want ~5.6", cur.S, v)
		}
	}
}

func TestEMPlannerAvoidsObstacle(t *testing.T) {
	e := NewEMPlanner()
	in := cruiseInput()
	in.Obstacles = []Obstacle{{S: 20, D: 0, Radius: 0.8}}
	p := e.Plan(in)
	// The path should be laterally displaced near s=20.
	displaced := false
	for _, tp := range p.Traj {
		if tp.S >= 17 && tp.S <= 23 && math.Abs(tp.D) > 0.8 {
			displaced = true
		}
	}
	if !displaced && !p.Blocked {
		t.Fatal("EM planner neither avoided nor blocked on obstacle")
	}
}

func TestEMPlannerBlocksOnWall(t *testing.T) {
	e := NewEMPlanner()
	in := cruiseInput()
	// A wall of obstacles across all laterals at 8 m, too wide to pass.
	for d := -4.0; d <= 4.0; d += 1 {
		in.Obstacles = append(in.Obstacles, Obstacle{S: 8, D: d, Radius: 1.2})
	}
	p := e.Plan(in)
	if !p.Blocked && p.Cmd.AccelMps2 > -1 {
		t.Fatalf("wall should force blocked/braking, got %+v", p.Cmd)
	}
}

func TestCollisionCheck(t *testing.T) {
	traj := []TrajPoint{{T: 1, S: 5, D: 0}}
	hit, clear := CollisionCheck(traj, []Obstacle{{S: 5, D: 0.2, Radius: 0.3}}, 0.5)
	if !hit {
		t.Fatal("expected collision flag")
	}
	if clear > 0 {
		t.Fatalf("clearance = %v, want negative", clear)
	}
	hit, clear = CollisionCheck(traj, []Obstacle{{S: 50, D: 0, Radius: 0.3}}, 0.5)
	if hit || clear < 40 {
		t.Fatalf("far obstacle: hit=%v clear=%v", hit, clear)
	}
}

func TestCollisionCheckMovingObstacle(t *testing.T) {
	// Obstacle starts far but closes at 10 m/s; at T=2 it reaches S=5.
	traj := []TrajPoint{{T: 2, S: 5, D: 0}}
	hit, _ := CollisionCheck(traj, []Obstacle{{S: 25, D: 0, VS: -10, Radius: 0.5}}, 0.5)
	if !hit {
		t.Fatal("moving obstacle should collide at T=2")
	}
}

func TestCollisionCheckEmpty(t *testing.T) {
	if hit, _ := CollisionCheck(nil, nil, 1); hit {
		t.Fatal("empty inputs should not collide")
	}
}

func TestMPCDeterministicCost(t *testing.T) {
	a := NewMPC(DefaultMPCConfig())
	b := NewMPC(DefaultMPCConfig())
	in := cruiseInput()
	in.Obstacles = []Obstacle{{S: 12, D: 0.5, Radius: 0.5}}
	pa := a.Plan(in)
	pb := b.Plan(in)
	if pa.Cost != pb.Cost {
		t.Fatalf("non-deterministic: %v vs %v", pa.Cost, pb.Cost)
	}
}

func TestEMPlannerIsMuchMoreExpensiveThanMPC(t *testing.T) {
	// Sec. V-C: the EM planner costs ~33× the MPC. Verify the ratio is at
	// least an order of magnitude on identical inputs (exact ratios are
	// host-dependent; bench_test.go reports the measured value).
	if testing.Short() {
		t.Skip("timing test")
	}
	in := cruiseInput()
	in.Obstacles = []Obstacle{{S: 20, D: 0.3, Radius: 0.5}}
	m := NewMPC(DefaultMPCConfig())
	e := NewEMPlanner()
	mpcT := timeIt(200, func() { m.Plan(in) })
	emT := timeIt(20, func() { e.Plan(in) })
	if emT < 5*mpcT {
		t.Fatalf("EM/MPC cost ratio = %.1f, want >= 5 (paper: ~33)", emT/mpcT)
	}
}

func timeIt(n int, f func()) float64 {
	t0 := nowSeconds()
	for i := 0; i < n; i++ {
		f()
	}
	return (nowSeconds() - t0) / float64(n)
}

func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

func BenchmarkMPCPlan(b *testing.B) {
	m := NewMPC(DefaultMPCConfig())
	in := cruiseInput()
	in.Obstacles = []Obstacle{{S: 20, D: 0.3, Radius: 0.5}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Plan(in)
	}
}

func BenchmarkEMPlan(b *testing.B) {
	e := NewEMPlanner()
	in := cruiseInput()
	in.Obstacles = []Obstacle{{S: 20, D: 0.3, Radius: 0.5}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Plan(in)
	}
}

func TestMPCCommandsAlwaysWithinLimits(t *testing.T) {
	// Property: whatever the scene, the emitted command respects the
	// actuator envelope.
	cfg := DefaultMPCConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMPC(cfg)
		in := Input{
			Speed:       rng.Float64() * 9,
			LaneOffset:  rng.Float64()*4 - 2,
			HeadingErr:  rng.Float64() - 0.5,
			TargetSpeed: rng.Float64() * 9,
			LaneWidth:   3,
		}
		for k := 0; k < rng.Intn(5); k++ {
			in.Obstacles = append(in.Obstacles, Obstacle{
				S:      rng.Float64() * 40,
				D:      rng.Float64()*6 - 3,
				VS:     rng.Float64()*6 - 3,
				VD:     rng.Float64()*2 - 1,
				Radius: 0.3 + rng.Float64(),
			})
		}
		p := m.Plan(in)
		if p.Cmd.AccelMps2 < -maxBrake-1e-9 || p.Cmd.AccelMps2 > maxAccel+1e-9 {
			return false
		}
		return p.Cmd.SteerRad >= -0.55-1e-9 && p.Cmd.SteerRad <= 0.55+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEMPlannerSpeedsNonNegative(t *testing.T) {
	e := NewEMPlanner()
	in := cruiseInput()
	in.Obstacles = []Obstacle{{S: 15, D: 0, VS: -3, Radius: 1}}
	// The profile Plan builds its trajectory and first-step command from.
	// Plan clamps each speed to 0.1 m/s before timing a station, so the
	// trajectory's clock cannot show a negative speed: read the profile.
	path := e.qpSmooth(e.pathDP(in), 0.4)
	speeds, _ := e.speedDP(in, path)
	speeds = e.qpSmooth(speeds, 0.2)
	for i, v := range speeds {
		if v < 0 {
			t.Fatalf("negative speed %v at station %d", v, i)
		}
	}
}

// fullRolloutMPC is the planner as it was before Plan resumed probes from
// the state before the probed step: every cost evaluation re-rolls the whole
// horizon with separate math.Cos/math.Sin calls. It is kept verbatim as the
// oracle TestPlanBitIdenticalToFullRollout holds MPC.Plan to.
type fullRolloutMPC struct {
	Cfg          MPCConfig
	accel, steer []float64
	traj         []TrajPoint
}

func newFullRolloutMPC(cfg MPCConfig) *fullRolloutMPC {
	return &fullRolloutMPC{
		Cfg:   cfg,
		accel: make([]float64, cfg.Horizon),
		steer: make([]float64, cfg.Horizon),
		traj:  make([]TrajPoint, cfg.Horizon),
	}
}

func (m *fullRolloutMPC) cost(in Input, accel, steer []float64) float64 {
	cfg := m.Cfg
	dt := cfg.Dt
	s, d, v, h := 0.0, in.LaneOffset, in.Speed, in.HeadingErr
	c := 0.0
	for k := range accel {
		v = mathx.Clamp(v+accel[k]*dt, 0, 12)
		h = mathx.Clamp(h+steer[k]*dt, -2.5, 2.5)
		s += v * math.Cos(h) * dt
		d += v * math.Sin(h) * dt
		t := dt * float64(k+1)

		dv := v - in.TargetSpeed
		c += wSpeed * dv * dv
		c += wLane * d * d
		c += wEffort * (accel[k]*accel[k] + 4*steer[k]*steer[k])
		for _, o := range in.Obstacles {
			ds := s - (o.S + o.VS*t)
			dd := d - (o.D + o.VD*t)
			clear := math.Sqrt(ds*ds+dd*dd) - o.Radius
			if clear < safeDistance {
				pen := safeDistance - clear
				c += wObstacle * pen * pen
			}
		}
	}
	// Terminal heading alignment.
	c += wHeading * h * h
	return c
}

func (m *fullRolloutMPC) Plan(in Input) Plan {
	cfg := m.Cfg
	if in.LaneWidth == 0 {
		in.LaneWidth = 3
	}
	// Warm start: shift the previous solution one step.
	copy(m.accel, m.accel[1:])
	copy(m.steer, m.steer[1:])

	lr := 0.5
	base := m.cost(in, m.accel, m.steer)
	const eps = 1e-3
	for it := 0; it < mpcIters; it++ {
		improved := false
		for k := 0; k < cfg.Horizon; k++ {
			// Numerical gradient for accel[k].
			m.accel[k] += eps
			ca := m.cost(in, m.accel, m.steer)
			m.accel[k] -= eps
			ga := (ca - base) / eps
			// And steer[k].
			m.steer[k] += eps
			cs := m.cost(in, m.accel, m.steer)
			m.steer[k] -= eps
			gs := (cs - base) / eps

			na := mathx.Clamp(m.accel[k]-lr*ga, -maxBrake, maxAccel)
			ns := mathx.Clamp(m.steer[k]-lr*gs, -maxSteerRate, maxSteerRate)
			olda, olds := m.accel[k], m.steer[k]
			m.accel[k], m.steer[k] = na, ns
			c := m.cost(in, m.accel, m.steer)
			if c < base {
				base = c
				improved = true
			} else {
				m.accel[k], m.steer[k] = olda, olds
			}
		}
		if !improved {
			lr /= 2
			if lr < 1e-3 {
				break
			}
		}
	}

	traj := simulateInto(m.traj, in, m.accel, m.steer, cfg.Dt)
	collides, _ := CollisionCheck(traj, in.Obstacles, 0.5)
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
		plan.Blocked = true
		plan.Cmd = canbus.Command{AccelMps2: -maxBrake}
	}
	return plan
}

// randomObstacle draws a moving obstacle somewhere in the 40 m ahead.
func randomObstacle(rng *rand.Rand) Obstacle {
	return Obstacle{
		S:      rng.Float64() * 40,
		D:      rng.Float64()*6 - 3,
		VS:     rng.Float64()*6 - 3,
		VD:     rng.Float64()*2 - 1,
		Radius: 0.3 + rng.Float64(),
	}
}

// randomPlanInput draws a scene that exercises every branch of the cost:
// 0–8 moving obstacles, off-lane and heading-error starts, and (one in six)
// a wall dead ahead that leaves no safe plan.
func randomPlanInput(rng *rand.Rand) Input {
	in := Input{
		Speed:       rng.Float64() * 11,
		LaneOffset:  rng.Float64()*4 - 2,
		HeadingErr:  rng.Float64()*1.6 - 0.8,
		TargetSpeed: rng.Float64() * 9,
	}
	if rng.Intn(4) == 0 { // on-lane, aligned cruise
		in.LaneOffset, in.HeadingErr = 0, 0
	}
	for n := rng.Intn(9); n > 0; n-- {
		in.Obstacles = append(in.Obstacles, randomObstacle(rng))
	}
	if rng.Intn(6) == 0 {
		in.Obstacles = append(in.Obstacles, Obstacle{S: 1 + 4*rng.Float64(), Radius: 2})
	}
	return in
}

// planPair is one planner of each kind fed the same inputs, so the warm
// start — which carries any divergence into every later cycle — is covered.
type planPair struct {
	got  *MPC
	want *fullRolloutMPC
}

func newPlanPair(cfg MPCConfig) planPair {
	return planPair{NewMPC(cfg), newFullRolloutMPC(cfg)}
}

// warm sets every control of both warm starts.
func (pp planPair) warm(accel, steer float64) {
	for k := range pp.got.accel {
		pp.got.accel[k], pp.want.accel[k] = accel, accel
		pp.got.steer[k], pp.want.steer[k] = steer, steer
	}
}

// plan runs both planners on in and fails, naming the input as where, unless
// MPC.Plan returned the oracle's plan and left the oracle's warm start, bit
// for bit. NaNs match each other whatever their payload: which operand's
// payload a product of two NaNs keeps is the compiler's choice per call
// site, not the planner's.
func (pp planPair) plan(t *testing.T, where string, in Input) Plan {
	t.Helper()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}
	g, w := pp.got.Plan(in), pp.want.Plan(in)
	if g.Blocked != w.Blocked || !same(g.Cost, w.Cost) ||
		!same(g.Cmd.AccelMps2, w.Cmd.AccelMps2) || !same(g.Cmd.SteerRad, w.Cmd.SteerRad) {
		t.Fatalf("%s: plan = {%+v cost %v blocked %v}, full rollout = {%+v cost %v blocked %v}",
			where, g.Cmd, g.Cost, g.Blocked, w.Cmd, w.Cost, w.Blocked)
	}
	if len(g.Traj) != len(w.Traj) {
		t.Fatalf("%s: %d trajectory points, want %d", where, len(g.Traj), len(w.Traj))
	}
	for i := range g.Traj {
		p, q := g.Traj[i], w.Traj[i]
		if !same(p.T, q.T) || !same(p.S, q.S) || !same(p.D, q.D) {
			t.Fatalf("%s: traj[%d] = %+v, full rollout = %+v", where, i, p, q)
		}
	}
	for k := range pp.got.accel {
		if !same(pp.got.accel[k], pp.want.accel[k]) || !same(pp.got.steer[k], pp.want.steer[k]) {
			t.Fatalf("%s: control %d = (%v, %v), full rollout = (%v, %v)",
				where, k, pp.got.accel[k], pp.got.steer[k], pp.want.accel[k], pp.want.steer[k])
		}
	}
	return g
}

// pinned counts the horizon steps of the solution in.HeadingErr was just
// planned from whose heading sits on the ±2.5 clamp, and those whose steer
// rate sits on ±maxSteerRate.
func (pp planPair) pinned(in Input) (heading, steer int) {
	h := in.HeadingErr
	for _, w := range pp.got.steer {
		h = mathx.Clamp(h+w*pp.got.Cfg.Dt, -2.5, 2.5)
		if math.Abs(h) == 2.5 {
			heading++
		}
		if math.Abs(w) == maxSteerRate {
			steer++
		}
	}
	return heading, steer
}

// TestPlanBitIdenticalToFullRollout holds the resumed-rollout, sin/cos
// memoising Plan to the full-rollout oracle bit for bit, on runs of
// consecutive Plan calls over random scenes and then over the regimes the
// memo's hits and misses depend on.
func TestPlanBitIdenticalToFullRollout(t *testing.T) {
	t.Run("random scenes", func(t *testing.T) {
		const runs, cycles = 150, 8 // 1200 inputs
		blocked := 0
		for seed := int64(0); seed < runs; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pp := newPlanPair(DefaultMPCConfig())
			for c := 0; c < cycles; c++ {
				if pp.plan(t, fmt.Sprintf("seed %d cycle %d", seed, c), randomPlanInput(rng)).Blocked {
					blocked++
				}
			}
		}
		if blocked == 0 || blocked == runs*cycles {
			t.Fatalf("%d of %d plans blocked; the inputs must cover both outcomes", blocked, runs*cycles)
		}
	})

	// Off-lane on the side the heading points away from, so the lane cost
	// pushes the heading further into the clamp and the steer rate into its
	// limit: probes and candidates of a clamped step revisit the same
	// heading, and a candidate clamped to the limit it already sat on is the
	// ns == olds path.
	t.Run("heading and steer pinned", func(t *testing.T) {
		cfg := DefaultMPCConfig()
		headings, steers := 0, 0
		for _, sign := range []float64{1, -1} {
			pp := newPlanPair(cfg)
			pp.warm(0, sign*maxSteerRate)
			for c := 0; c < 8; c++ {
				in := Input{Speed: 8, TargetSpeed: 8, LaneOffset: sign * 1.5,
					HeadingErr: sign * (2.3 + 0.05*float64(c)), // past the clamp from cycle 5 on
					Obstacles:  []Obstacle{{S: -6, D: sign * 3, VS: -1, Radius: 0.5}}}
				pp.plan(t, fmt.Sprintf("sign %v cycle %d", sign, c), in)
				h, s := pp.pinned(in)
				headings, steers = headings+h, steers+s
			}
		}
		if headings == 0 || steers == 0 {
			t.Fatalf("%d steps with the heading on its clamp, %d with the steer rate on its limit; want both", headings, steers)
		}
	})

	// A heading of exactly zero is where a zero-valued memo entry is a false
	// hit (cos 0: the vehicle never advances, which only an obstacle's
	// clearance notices), and -0 and +0 are the one pair of equal headings
	// whose Sincos differ. Aligned cruise at the set point on a zero warm
	// start keeps the early rollouts on that heading.
	t.Run("signed zero heading", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		for _, h := range []float64{0, negZero} {
			for _, steer := range []float64{0, negZero} {
				for _, offset := range []float64{0, negZero, 0.7} {
					pp := newPlanPair(DefaultMPCConfig())
					pp.warm(0, steer)
					in := Input{Speed: 5.6, TargetSpeed: 5.6, LaneOffset: offset, HeadingErr: h,
						Obstacles: []Obstacle{{S: 9, D: 2.4, Radius: 0.6}}}
					for c := 0; c < 3; c++ {
						pp.plan(t, fmt.Sprintf("heading %v steer %v offset %v cycle %d", h, steer, offset, c), in)
					}
				}
			}
		}
	})

	t.Run("dense obstacles", func(t *testing.T) {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			pp := newPlanPair(DefaultMPCConfig())
			for c := 0; c < 4; c++ {
				in := randomPlanInput(rng)
				for n := 16 + rng.Intn(17); len(in.Obstacles) < n; {
					in.Obstacles = append(in.Obstacles, randomObstacle(rng))
				}
				pp.plan(t, fmt.Sprintf("seed %d cycle %d, %d obstacles", seed, c, len(in.Obstacles)), in)
			}
		}
	})

	// Cfg is an exported field: a caller may retune it between cycles, and
	// the memo filled under the old Dt must not answer for the new one.
	t.Run("Dt mutated between plans", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		pp := newPlanPair(DefaultMPCConfig())
		in := randomPlanInput(rng)
		for c, dt := range []float64{0.1, 0.05, 0.05, 0.2, 0.1, 0.1} {
			pp.got.Cfg.Dt, pp.want.Cfg.Dt = dt, dt
			pp.plan(t, fmt.Sprintf("cycle %d, Dt %v", c, dt), in) // the same scene again: only Dt moved the headings
			if c%2 == 1 {
				in = randomPlanInput(rng)
			}
		}
	})
}

// FuzzPlanMatchesFullRollout drives MPC.Plan and the full-rollout oracle
// with a fuzzed start state and obstacle field (five bytes per obstacle, at
// most 32), then follows the plan for a few cycles as the vehicle would, so
// the warm start and the memo carry over from one Plan to the next.
func FuzzPlanMatchesFullRollout(f *testing.F) {
	f.Fuzz(func(t *testing.T, speed, laneOffset, headingErr, targetSpeed float64, horizon uint8, obstacles []byte) {
		cfg := DefaultMPCConfig()
		cfg.Horizon = 1 + int(horizon)%24
		in := Input{Speed: speed, LaneOffset: laneOffset, HeadingErr: headingErr, TargetSpeed: targetSpeed}
		unit := func(x byte) float64 { return float64(x) / 255 }
		for b := obstacles; len(b) >= 5 && len(in.Obstacles) < 32; b = b[5:] {
			in.Obstacles = append(in.Obstacles, Obstacle{
				S:      unit(b[0]) * 40,
				D:      unit(b[1])*6 - 3,
				VS:     unit(b[2])*6 - 3,
				VD:     unit(b[3])*2 - 1,
				Radius: 0.3 + unit(b[4]),
			})
		}
		pp := newPlanPair(cfg)
		for c := 0; c < 4; c++ {
			p := pp.plan(t, fmt.Sprintf("cycle %d", c), in)
			in.Speed, in.LaneOffset = mathx.Clamp(in.Speed+p.Cmd.AccelMps2*cfg.Dt, 0, 12), p.Traj[0].D
			in.HeadingErr = mathx.Clamp(in.HeadingErr+pp.got.steer[0]*cfg.Dt, -2.5, 2.5)
			for i := range in.Obstacles {
				o := &in.Obstacles[i]
				o.S += o.VS*cfg.Dt - p.Traj[0].S
				o.D += o.VD * cfg.Dt
			}
		}
	})
}

// BenchmarkPlanSequence plans over the oracle test's scene stream on one
// planner: off-lane and misaligned starts, moving obstacles and a warm start
// that never converges, which is what the control loop feeds the planner.
// (BenchmarkPlannerComparisonMPC replays one aligned, converged input.)
func BenchmarkPlanSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inputs := make([]Input, 256)
	for i := range inputs {
		inputs[i] = randomPlanInput(rng)
	}
	m := NewMPC(DefaultMPCConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Plan(inputs[i%len(inputs)])
	}
}

func TestNewMPCPanicsOnBadConfig(t *testing.T) {
	for _, mut := range []func(*MPCConfig){
		func(c *MPCConfig) { c.Horizon = 0 },
		func(c *MPCConfig) { c.Dt = 0 },
		func(c *MPCConfig) { c.Dt = -0.1 },
	} {
		cfg := DefaultMPCConfig()
		mut(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMPC(%+v) did not panic", cfg)
				}
			}()
			NewMPC(cfg)
		}()
	}
}
