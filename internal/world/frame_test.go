package world

import (
	"math"
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
)

// The three reference queries are the loops as they stood before the frame
// and the per-axis prefilter existed: every obstacle sampled on every call,
// a Hypot for each. The World and Frame methods must reproduce them bit for
// bit, in order.

func refInView(o *Obstacle, p Pose, t time.Duration, maxRange, fov float64) (Detection, bool) {
	pos, vel := o.At(t)
	rel := pos.Sub(p.Pos)
	r := rel.Norm()
	if r > maxRange || r == 0 {
		return Detection{}, false
	}
	bearing := mathx.WrapAngle(rel.Angle() - p.Heading)
	if math.Abs(bearing) > fov/2 {
		return Detection{}, false
	}
	return Detection{Obstacle: o, Pos: pos, Vel: vel, Range: r, Bearing: bearing}, true
}

func refVisible(w *World, p Pose, t time.Duration, maxRange, fov float64) []Detection {
	var out []Detection
	for _, o := range w.Obstacles {
		if d, ok := refInView(o, p, t, maxRange, fov); ok {
			out = append(out, d)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Range < out[j-1].Range; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func refNearest(w *World, p Pose, t time.Duration, maxRange, fov float64) (Detection, bool) {
	var best Detection
	found := false
	for _, o := range w.Obstacles {
		if d, ok := refInView(o, p, t, maxRange, fov); ok && (!found || d.Range < best.Range) {
			best, found = d, true
		}
	}
	return best, found
}

func refComplexity(w *World, p Pose, t time.Duration) float64 {
	moving := 0
	for _, o := range w.Obstacles {
		if d, ok := refInView(o, p, t, 40, math.Pi); ok && d.Vel.Norm() > 0.2 {
			moving++
		}
	}
	return mathx.Clamp(float64(moving)/6, 0, 1)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVec(a, b mathx.Vec2) bool { return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) }

func sameDetection(a, b Detection) bool {
	return a.Obstacle == b.Obstacle && sameVec(a.Pos, b.Pos) && sameVec(a.Vel, b.Vel) &&
		sameBits(a.Range, b.Range) && sameBits(a.Bearing, b.Bearing)
}

func sameDetections(a, b []Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameDetection(a[i], b[i]) {
			return false
		}
	}
	return true
}

// randomWorld mixes the three trajectory kinds with the prefilter's edge
// cases as seen from the origin pose: obstacles exactly at the radar,
// detector and sonar ranges on an axis and just off it, one on the observer
// (r == 0), and positions at ±Inf and NaN.
func randomWorld(rng *sim.RNG) *World {
	w := &World{}
	for i, n := 0, 5+rng.Intn(40); i < n; i++ {
		pos := mathx.Vec2{X: rng.Uniform(-120, 120), Y: rng.Uniform(-60, 60)}
		switch rng.Intn(3) {
		case 0:
			w.AddStaticObstacle(pos, rng.Uniform(0.2, 2))
		case 1:
			w.Obstacles = append(w.Obstacles, &Obstacle{ID: len(w.Obstacles) + 1, Kind: KindPedestrian, Radius: 0.3,
				Traj: LinearTrajectory(pos, mathx.Vec2{X: rng.Uniform(-2, 2), Y: rng.Uniform(-2, 2)},
					time.Duration(rng.Uniform(0, 8)*float64(time.Second)))})
		default:
			w.AddSuddenObstacle(pos, time.Duration(rng.Uniform(0, 8)*float64(time.Second)))
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, pos := range []mathx.Vec2{
		{X: 40}, {Y: -40}, {X: math.Nextafter(40, 41)}, {X: 35}, {X: 5}, {Y: 5}, {X: -5},
		{X: 40, Y: 1e-300}, {X: 28.3, Y: 28.3}, {X: 39, Y: 39}, {},
		{X: inf}, {X: -inf, Y: 3}, {X: nan}, {X: 3, Y: nan}, {X: inf, Y: nan}, {X: nan, Y: nan},
	} {
		w.AddStaticObstacle(pos, 0.5)
	}
	return w
}

// checkFrameMatchesWorld asserts that every query at (p, t) reads the same
// through the frame, through the frame-less World method, and through the
// pre-frame reference loop.
func checkFrameMatchesWorld(t *testing.T, w *World, f *Frame, p Pose, at time.Duration) {
	t.Helper()
	for _, view := range []struct{ maxRange, fov float64 }{
		{40, math.Pi / 2}, {35, math.Pi / 2}, {5, math.Pi / 3}, {40, 2 * math.Pi}, {0, math.Pi}, {math.Inf(1), math.Pi}, {math.NaN(), math.Pi},
	} {
		want := refVisible(w, p, at, view.maxRange, view.fov)
		if got := w.VisibleObstaclesInto(nil, p, at, view.maxRange, view.fov); !sameDetections(got, want) {
			t.Fatalf("World.VisibleObstaclesInto(%+v, %v, %+v) = %v, want %v", p, at, view, got, want)
		}
		if got := f.VisibleObstaclesInto(nil, p, at, view.maxRange, view.fov); !sameDetections(got, want) {
			t.Fatalf("Frame.VisibleObstaclesInto(%+v, %v, %+v) = %v, want %v", p, at, view, got, want)
		}
		wantD, wantOK := refNearest(w, p, at, view.maxRange, view.fov)
		if got, ok := w.NearestAhead(p, at, view.maxRange, view.fov); ok != wantOK || !sameDetection(got, wantD) {
			t.Fatalf("World.NearestAhead(%+v, %v, %+v) = %v %v, want %v %v", p, at, view, got, ok, wantD, wantOK)
		}
		if got, ok := f.NearestAhead(p, at, view.maxRange, view.fov); ok != wantOK || !sameDetection(got, wantD) {
			t.Fatalf("Frame.NearestAhead(%+v, %v, %+v) = %v %v, want %v %v", p, at, view, got, ok, wantD, wantOK)
		}
	}
	want := refComplexity(w, p, at)
	if got := w.SceneComplexity(p, at); !sameBits(got, want) {
		t.Fatalf("World.SceneComplexity(%+v, %v) = %v, want %v", p, at, got, want)
	}
	if got := f.SceneComplexity(p, at); !sameBits(got, want) {
		t.Fatalf("Frame.SceneComplexity(%+v, %v) = %v, want %v", p, at, got, want)
	}
	states := f.At(at)
	if len(states) != len(w.Obstacles) {
		t.Fatalf("Frame.At holds %d states for %d obstacles", len(states), len(w.Obstacles))
	}
	for i, o := range w.Obstacles {
		if pos, vel := o.At(at); !sameVec(states[i].Pos, pos) || !sameVec(states[i].Vel, vel) {
			t.Fatalf("Frame.At(%v)[%d] = %+v, want %v %v", at, i, states[i], pos, vel)
		}
	}
}

// TestFrameMatchesWorld is the frame's contract: over random worlds, poses
// and times — time running forwards, repeating and going backwards, and an
// obstacle appended to the world between queries — one long-lived frame
// answers every query with the bits and the order of the frame-less path.
func TestFrameMatchesWorld(t *testing.T) {
	rng := sim.NewRNG(23)
	for trial := 0; trial < 40; trial++ {
		w := randomWorld(rng)
		f := NewFrame(w)
		poses := []Pose{{}, {Heading: math.Pi / 2}, {Heading: -3}}
		for i := 0; i < 6; i++ {
			poses = append(poses, Pose{
				Pos:     mathx.Vec2{X: rng.Uniform(-100, 100), Y: rng.Uniform(-10, 10)},
				Heading: rng.Uniform(-math.Pi, math.Pi),
			})
		}
		times := []time.Duration{0, 0, 10 * time.Millisecond, 4 * time.Second, 4 * time.Second, time.Second, 9 * time.Second, 0}
		for step, at := range times {
			for _, p := range poses {
				checkFrameMatchesWorld(t, w, f, p, at)
			}
			switch step {
			case 2:
				w.AddCutInPedestrian(3, 2*time.Second, 1.4) // seen at the same t as the fill that missed it
				checkFrameMatchesWorld(t, w, f, poses[0], at)
			case 4:
				w.AddStaticObstacle(mathx.Vec2{X: 1, Y: 1}, 0.4)
			}
		}
	}
}

// TestFrameSamplesEachTrajectoryOncePerInstant is the point of the frame:
// any number of queries at one t cost one evaluation per obstacle, and the
// frame-less path costs one per obstacle per query.
func TestFrameSamplesEachTrajectoryOncePerInstant(t *testing.T) {
	w := randomWorld(sim.NewRNG(5))
	evals := 0
	for _, o := range w.Obstacles {
		traj := o.Traj
		o.Traj = func(at time.Duration) (mathx.Vec2, mathx.Vec2) { evals++; return traj(at) }
	}
	n := len(w.Obstacles)
	var dst []Detection
	query := func(at time.Duration, f *Frame) {
		p := Pose{Pos: mathx.Vec2{X: 2}}
		if f == nil {
			dst = w.VisibleObstaclesInto(dst[:0], p, at, 40, math.Pi/2)
			w.NearestAhead(p, at, 5, math.Pi/3)
			w.SceneComplexity(p, at)
			return
		}
		dst = f.VisibleObstaclesInto(dst[:0], p, at, 40, math.Pi/2)
		f.NearestAhead(p, at, 5, math.Pi/3)
		f.SceneComplexity(p, at)
		f.At(at)
	}
	f := NewFrame(w)
	for _, at := range []time.Duration{0, time.Second, time.Second, 2 * time.Second} {
		query(at, f)
		query(at, f)
	}
	if evals != 3*n {
		t.Fatalf("frame: %d trajectory evaluations over 3 distinct instants of %d obstacles, want %d", evals, n, 3*n)
	}
	evals = 0
	query(time.Second, nil)
	if evals != 3*n {
		t.Fatalf("frame-less: %d trajectory evaluations for 3 queries of %d obstacles, want %d", evals, n, 3*n)
	}
	if allocs := testing.AllocsPerRun(100, func() { query(time.Second, f); query(3*time.Second, f) }); allocs != 0 {
		t.Fatalf("warm frame allocates %v per refill", allocs)
	}
}

// FuzzHypotLowerBound is the reason the longer-axis prefilter and the
// physics step's skip are exact. Whenever m = max(|x|, |y|) is a number
// (Go's max is NaN if either side is), Hypot(x, y) ≥ m, so an obstacle
// rejected on m > maxRange would have been rejected on its range; and
// subtracting a radius from both sides keeps the order, so a clearance
// bounded from below by m - radius cannot fall under that bound. When m is
// NaN neither shortcut fires and the full test runs.
func FuzzHypotLowerBound(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	for _, s := range [][3]float64{
		{0, 0, 0}, {3, 4, 0.3}, {40, 1e-300, 2}, {-40, 5e-324, 0.5}, {5e-324, 5e-324, 0},
		{2.2250738585072014e-308, 2.2250738585072014e-308, 1e-310}, {1e308, 1e308, 1e300},
		{math.MaxFloat64, math.MaxFloat64, 1}, {1e308, 5e-324, 2}, {1, 1e-17, 0.3},
		{39.99999999999999, 40.00000000000001, 0.3}, {-1e154, 1e154, 1e140},
		{inf, 3, 0.5}, {-inf, nan, 0.5}, {3, nan, 0.5}, {nan, nan, 0.5},
	} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, x, y, radius float64) {
		h := mathx.Vec2{X: x, Y: y}.Norm()
		m := max(math.Abs(x), math.Abs(y))
		if math.IsNaN(m) {
			if m > 0 || m-radius >= 0 {
				t.Fatalf("a NaN bound compared true")
			}
			return
		}
		if !(h >= m) {
			t.Fatalf("Hypot(%v, %v) = %v < max(|x|, |y|) = %v", x, y, h, m)
		}
		if math.IsNaN(radius) || math.IsInf(radius, 0) {
			return
		}
		if !(h-radius >= m-radius) {
			t.Fatalf("Hypot(%v, %v) - %v = %v < %v", x, y, radius, h-radius, m-radius)
		}
	})
}
