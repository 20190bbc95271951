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

// randomWorld mixes the three trajectory kinds with the prefilter's and the
// window's edge cases as seen from the origin pose: obstacles exactly at the
// radar, detector and sonar ranges and at the window reaches 5 and 44 on an
// axis and one Nextafter beyond, one on the observer (r == 0), and
// positions at ±Inf and NaN.
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
		{X: math.Nextafter(5, 6)}, {Y: math.Nextafter(-5, -6)}, {X: 44}, {Y: -44}, {X: math.Nextafter(44, 45)}, {Y: math.Nextafter(-44, -45)},
		{X: inf}, {X: -inf, Y: 3}, {X: nan}, {X: 3, Y: nan}, {X: inf, Y: nan}, {X: nan, Y: nan},
	} {
		w.AddStaticObstacle(pos, 0.5)
	}
	return w
}

// checkView asserts that both cone queries of one view read the same
// through the frame, through the World and through the reference loop.
func checkView(t *testing.T, w *World, f *Frame, p Pose, at time.Duration, maxRange, fov float64) {
	t.Helper()
	view := struct{ maxRange, fov float64 }{maxRange, fov}
	want := refVisible(w, p, at, maxRange, fov)
	if got := w.VisibleObstaclesInto(nil, p, at, maxRange, fov); !sameDetections(got, want) {
		t.Fatalf("World.VisibleObstaclesInto(%+v, %v, %+v) = %v, want %v", p, at, view, got, want)
	}
	if got := f.VisibleObstaclesInto(nil, p, at, maxRange, fov); !sameDetections(got, want) {
		t.Fatalf("Frame.VisibleObstaclesInto(%+v, %v, %+v) = %v, want %v", p, at, view, got, want)
	}
	wantD, wantOK := refNearest(w, p, at, maxRange, fov)
	if got, ok := w.NearestAhead(p, at, maxRange, fov); ok != wantOK || !sameDetection(got, wantD) {
		t.Fatalf("World.NearestAhead(%+v, %v, %+v) = %v %v, want %v %v", p, at, view, got, ok, wantD, wantOK)
	}
	if got, ok := f.NearestAhead(p, at, maxRange, fov); ok != wantOK || !sameDetection(got, wantD) {
		t.Fatalf("Frame.NearestAhead(%+v, %v, %+v) = %v %v, want %v %v", p, at, view, got, ok, wantD, wantOK)
	}
}

// checkFrameMatchesWorld asserts that every query at (p, t) reads the same
// through the frame, through the frame-less World method, and through the
// pre-frame reference loop.
func checkFrameMatchesWorld(t *testing.T, w *World, f *Frame, p Pose, at time.Duration) {
	t.Helper()
	for _, view := range []struct{ maxRange, fov float64 }{
		{40, math.Pi / 2}, {35, math.Pi / 2}, {5, math.Pi / 3}, {40, 2 * math.Pi}, {0, math.Pi}, {math.Inf(1), math.Pi}, {math.NaN(), math.Pi},
	} {
		checkView(t, w, f, p, at, view.maxRange, view.fov)
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

// windowReaches are the windows TestFrameMatchesWorld sets: the two that set
// no window, an empty one, the sonar scale and wider than a radar sweep's,
// which the next instant's first queries find cut at another t.
var windowReaches = []float64{math.NaN(), math.Inf(1), 0, 5, 44}

// TestFrameMatchesWorld is the frame's contract: over random worlds, poses
// and times — time running forwards, repeating and going backwards, and an
// obstacle appended to the world between queries — one long-lived frame
// answers every query with the bits and the order of the frame-less path,
// whatever window it holds: one around each pose at each t, queried from
// inside it, from a box straddling its edge and from another pose; one set
// at an earlier t; one cut before an obstacle was appended; and the
// rounding edges of the fit test (windowRoundingEdges).
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
			// The window left from the previous instant was cut at another t.
			for _, p := range poses {
				checkFrameMatchesWorld(t, w, f, p, at)
			}
			if trial < 8 {
				for i, c := range poses {
					for _, reach := range windowReaches {
						f.Around(at, c.Pos, reach)
						straddle := Pose{Pos: c.Pos.Add(mathx.Vec2{X: 3, Y: -2}), Heading: c.Heading}
						for _, p := range []Pose{c, straddle, poses[(i+4)%len(poses)]} {
							checkFrameMatchesWorld(t, w, f, p, at)
						}
					}
				}
			}
			switch step {
			case 2:
				f.Around(at, poses[0].Pos, 44)
				w.AddCutInPedestrian(3, 2*time.Second, 1.4) // seen at the same t as the fill and the window that missed it
				checkFrameMatchesWorld(t, w, f, poses[0], at)
			case 4:
				w.AddStaticObstacle(mathx.Vec2{X: 1, Y: 1}, 0.4)
			}
		}
	}
	for _, e := range windowRoundingEdges(sim.NewRNG(43), 16) {
		w := &World{}
		w.AddStaticObstacle(e.obstacle, 0.5)
		f := NewFrame(w)
		f.Around(time.Second, e.center, e.reach)
		checkFrameMatchesWorld(t, w, f, e.query, time.Second)
	}
}

// windowEdge is a window and a query whose box fits inside it only up to
// rounding: fl(maxRange + |fl(p-c)|) equals reach exactly, and the obstacle,
// on the axis through both, has |fl(x-p)| ≤ maxRange (the query keeps it)
// but |fl(x-c)| > reach (the window drops it). A fit test without its
// rounding margin walks the window and misses the obstacle.
type windowEdge struct {
	center, obstacle mathx.Vec2
	reach            float64
	query            Pose
}

// windowRoundingEdges searches n such edges, along X and along Y, at
// the view ranges checkFrameMatchesWorld asks.
func windowRoundingEdges(rng *sim.RNG, n int) []windowEdge {
	var edges []windowEdge
	for len(edges) < n {
		c := rng.Uniform(-40, 40)
		p := c + rng.Uniform(-2.5, 2.5)
		m := []float64{40, 35, 5}[rng.Intn(3)]
		reach := m + math.Abs(p-c)
		for _, dir := range []float64{1, -1} {
			x := c + dir*reach
			for k := 0; k < 4; k++ {
				if math.Abs(x-c) > reach && math.Abs(x-p) <= m && x != p {
					heading := 0.0
					if dir < 0 {
						heading = math.Pi
					}
					e := windowEdge{mathx.Vec2{X: c}, mathx.Vec2{X: x}, reach, Pose{Pos: mathx.Vec2{X: p}, Heading: heading}}
					if len(edges)%2 == 1 { // the same edge along Y
						e = windowEdge{mathx.Vec2{Y: c}, mathx.Vec2{Y: x}, reach, Pose{Pos: mathx.Vec2{Y: p}, Heading: heading + math.Pi/2}}
					}
					edges = append(edges, e)
					break
				}
				x = math.Nextafter(x, dir*math.Inf(1))
			}
		}
	}
	return edges[:n]
}

// TestFrameSamplesEachTrajectoryOncePerInstant is the point of the frame:
// any number of queries at one t cost one evaluation per obstacle, and the
// frame-less path costs one per obstacle per query. A window is cut from
// the samples, so it adds no evaluation, and a warm frame refills both
// without allocating.
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
		f.Around(at, p.Pos, 44)
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

// TestWindowWalksOnlyItsObstacles pins what the window saves and where the
// fit test's boundary lies: a query whose box fits walks exactly the
// obstacles not outside the window (NaN and ±Inf positions included), at
// fl(maxRange·(1+2⁻⁴⁹)) == reach too; one reach an ulp narrower, another t,
// a world that grew or an unset window walk every obstacle.
func TestWindowWalksOnlyItsObstacles(t *testing.T) {
	w := randomWorld(sim.NewRNG(11))
	f := NewFrame(w)
	at := 3 * time.Second
	walk := func(reach float64, queryAt time.Duration) int64 {
		f.Around(at, mathx.Vec2{}, reach)
		before := f.Visits()
		f.VisibleObstaclesInto(nil, Pose{}, queryAt, 40, math.Pi)
		return f.Visits() - before
	}
	if got := func() int64 { f.VisibleObstaclesInto(nil, Pose{}, at, 40, math.Pi); return f.Visits() }(); got != int64(len(w.Obstacles)) {
		t.Fatalf("a frame with no window walked %d of %d obstacles", got, len(w.Obstacles))
	}
	reach := 40 * (1 + 0x1p-49)
	inside := int64(0)
	for _, o := range w.Obstacles {
		pos, _ := o.At(at)
		if d := max(math.Abs(pos.X), math.Abs(pos.Y)); !(d > reach) || math.IsInf(d, 1) {
			inside++
		}
	}
	if inside >= int64(len(w.Obstacles)) {
		t.Fatalf("every obstacle of the test world is inside the window")
	}
	n := int64(len(w.Obstacles))
	for _, c := range []struct {
		name    string
		reach   float64
		queryAt time.Duration
		want    int64
	}{
		{"fit at equality", reach, at, inside},
		{"an ulp narrower", math.Nextafter(reach, 0), at, n},
		{"window cut at another t", reach, at + time.Millisecond, n},
	} {
		if got := walk(c.reach, c.queryAt); got != c.want {
			t.Errorf("%s: walked %d obstacles, want %d", c.name, got, c.want)
		}
	}
	f.Around(at, mathx.Vec2{}, reach)
	w.AddStaticObstacle(mathx.Vec2{X: 1}, 0.5)
	before := f.Visits()
	if f.VisibleObstaclesInto(nil, Pose{}, at, 40, math.Pi); f.Visits()-before != n+1 {
		t.Errorf("after the world grew: walked %d obstacles, want %d", f.Visits()-before, n+1)
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

// FuzzWindowMatchesWorld holds the window to the frame-less queries over
// arbitrary windows, poses and ranges: obstacles at the fuzzed position and
// an ulp either side of it, and at the window's edges and an ulp beyond
// them, must read the same through a frame holding the window as through
// the reference loops.
func FuzzWindowMatchesWorld(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	for _, e := range windowRoundingEdges(sim.NewRNG(43), 4) {
		f.Add(e.obstacle.X, e.obstacle.Y, e.center.X, e.center.Y, e.reach, e.query.Pos.X, e.query.Pos.Y, e.query.Heading, 40.0)
	}
	for _, s := range [][9]float64{
		{3, 0, 0, 0, 44, 0, 0, 0, 40}, {44, 0, 0, 0, 44, 2, 0, 0, 40}, {40, 0, 0, 0, 40, 0, 0, 0, 40},
		{3, 4, 1, 1, 5, 1, 1, 1, 5}, {nan, 3, 0, 0, 44, 0, 0, 0, 40}, {inf, 0, 0, 0, 44, 0, 0, 0, 40},
		{3, 0, 0, 0, inf, 0, 0, 0, 40}, {3, 0, 0, 0, nan, 0, 0, 0, 40}, {3, 0, nan, 0, 44, 0, 0, 0, 40},
		{3, 0, 0, 0, 44, nan, 0, 0, 40}, {3, 0, 0, 0, 44, 0, 0, 0, inf}, {3, 0, 0, 0, 44, 0, 0, 0, -1}, {nan, 0, 0, 0, 44, 0, 0, 0, -inf},
		{1e6 + 3, 1e6, 1e6, 1e6, 42.04, 1e6 + 2, 1e6 - 0.4, 0.3, 40}, {5e-324, 0, 0, 0, 5e-324, 0, 0, 0, 0},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8])
	}
	f.Fuzz(func(t *testing.T, ox, oy, cx, cy, reach, px, py, heading, maxRange float64) {
		w := &World{}
		up, down := math.Inf(1), math.Inf(-1)
		for _, pos := range []mathx.Vec2{
			{X: ox, Y: oy}, {X: math.Nextafter(ox, up), Y: oy}, {X: ox, Y: math.Nextafter(oy, down)},
			{X: cx + reach, Y: cy}, {X: math.Nextafter(cx+reach, up), Y: cy},
			{X: cx, Y: cy - reach}, {X: cx, Y: math.Nextafter(cy-reach, down)},
		} {
			w.AddStaticObstacle(pos, 0.5)
		}
		fr := NewFrame(w)
		fr.Around(0, mathx.Vec2{X: cx, Y: cy}, reach)
		p := Pose{Pos: mathx.Vec2{X: px, Y: py}, Heading: heading}
		for _, fov := range []float64{math.Pi / 2, 2 * math.Pi} {
			checkView(t, w, fr, p, 0, maxRange, fov)
		}
		if got, want := fr.SceneComplexity(p, 0), refComplexity(w, p, 0); !sameBits(got, want) {
			t.Fatalf("Frame.SceneComplexity(%+v) = %v, want %v", p, got, want)
		}
	})
}
