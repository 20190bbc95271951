package world

import (
	"math"
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
)

func TestLaneGeometry(t *testing.T) {
	l := Lane{Start: mathx.Vec2{}, End: mathx.Vec2{X: 10}, Width: 3}
	if l.Length() != 10 {
		t.Fatalf("length = %v", l.Length())
	}
	if l.Direction() != (mathx.Vec2{X: 1}) {
		t.Fatalf("direction = %v", l.Direction())
	}
	if got := l.CenterAt(4); got != (mathx.Vec2{X: 4}) {
		t.Fatalf("center = %v", got)
	}
	if got := l.CenterAt(99); got != (mathx.Vec2{X: 10}) {
		t.Fatalf("center clamp = %v", got)
	}
	if off := l.LateralOffset(mathx.Vec2{X: 5, Y: 1.2}); math.Abs(off-1.2) > 1e-12 {
		t.Fatalf("lateral = %v", off)
	}
	if !l.Contains(mathx.Vec2{X: 5, Y: 1.4}) {
		t.Fatal("point inside lane not contained")
	}
	if l.Contains(mathx.Vec2{X: 5, Y: 1.6}) {
		t.Fatal("point outside width contained")
	}
	if l.Contains(mathx.Vec2{X: -1, Y: 0}) {
		t.Fatal("point before start contained")
	}
}

func TestZeroLengthLaneDirection(t *testing.T) {
	l := Lane{Start: mathx.Vec2{X: 1, Y: 1}, End: mathx.Vec2{X: 1, Y: 1}}
	if l.Direction() != (mathx.Vec2{X: 1}) {
		t.Fatal("degenerate lane should return unit X")
	}
}

func TestLinearTrajectoryHoldsBeforeTrigger(t *testing.T) {
	traj := LinearTrajectory(mathx.Vec2{X: 10, Y: -3}, mathx.Vec2{Y: 1.5}, 2*time.Second)
	pos, vel := traj(time.Second)
	if pos != (mathx.Vec2{X: 10, Y: -3}) || vel != (mathx.Vec2{}) {
		t.Fatalf("before trigger: pos=%v vel=%v", pos, vel)
	}
	pos, vel = traj(4 * time.Second)
	if math.Abs(pos.Y-0) > 1e-9 || vel.Y != 1.5 {
		t.Fatalf("after trigger: pos=%v vel=%v", pos, vel)
	}
}

func TestVisibleObstaclesFOVAndRange(t *testing.T) {
	w := &World{}
	w.AddStaticObstacle(mathx.Vec2{X: 10}, 0.5)       // dead ahead
	w.AddStaticObstacle(mathx.Vec2{X: -10}, 0.5)      // behind
	w.AddStaticObstacle(mathx.Vec2{X: 100}, 0.5)      // too far
	w.AddStaticObstacle(mathx.Vec2{X: 5, Y: 20}, 0.5) // wide bearing

	p := Pose{}
	ds := w.VisibleObstaclesInto(nil, p, 0, 50, math.Pi/2)
	if len(ds) != 1 {
		t.Fatalf("visible = %d, want 1", len(ds))
	}
	if ds[0].Range != 10 || math.Abs(ds[0].Bearing) > 1e-12 {
		t.Fatalf("detection = %+v", ds[0])
	}
}

func TestVisibleObstaclesSortedByRange(t *testing.T) {
	w := &World{}
	w.AddStaticObstacle(mathx.Vec2{X: 30}, 0.5)
	w.AddStaticObstacle(mathx.Vec2{X: 10}, 0.5)
	w.AddStaticObstacle(mathx.Vec2{X: 20}, 0.5)
	ds := w.VisibleObstaclesInto(nil, Pose{}, 0, 50, math.Pi)
	for i := 1; i < len(ds); i++ {
		if ds[i].Range < ds[i-1].Range {
			t.Fatalf("not sorted: %v", ds)
		}
	}
	d, ok := w.NearestAhead(Pose{}, 0, 50, math.Pi)
	if !ok || d.Range != 10 {
		t.Fatalf("nearest = %+v ok=%v", d, ok)
	}
}

func TestNearestAheadEmpty(t *testing.T) {
	w := &World{}
	if _, ok := w.NearestAhead(Pose{}, 0, 50, math.Pi); ok {
		t.Fatal("expected no detection in empty world")
	}
}

func TestHeadingRotatesFOV(t *testing.T) {
	w := &World{}
	w.AddStaticObstacle(mathx.Vec2{Y: 10}, 0.5)
	// Facing +X, narrow cone: not visible.
	if _, ok := w.NearestAhead(Pose{}, 0, 50, math.Pi/4); ok {
		t.Fatal("should not see obstacle at +Y facing +X")
	}
	// Facing +Y: visible.
	if _, ok := w.NearestAhead(Pose{Heading: math.Pi / 2}, 0, 50, math.Pi/4); !ok {
		t.Fatal("should see obstacle facing +Y")
	}
}

func TestSceneComplexity(t *testing.T) {
	w := &World{}
	if w.SceneComplexity(Pose{}, 0) != 0 {
		t.Fatal("empty world should be complexity 0")
	}
	for i := 0; i < 10; i++ {
		o := &Obstacle{ID: i, Kind: KindPedestrian, Radius: 0.3,
			Traj: LinearTrajectory(mathx.Vec2{X: float64(5 + i)}, mathx.Vec2{Y: 1}, 0)}
		w.Obstacles = append(w.Obstacles, o)
	}
	if c := w.SceneComplexity(Pose{}, time.Second); c != 1 {
		t.Fatalf("saturated complexity = %v, want 1", c)
	}
}

func TestCutInPedestrian(t *testing.T) {
	rng := sim.NewRNG(1)
	w := NewCorridor(100, rng)
	ped := w.AddCutInPedestrian(30, 5*time.Second, 1.5)
	pos, _ := ped.At(0)
	if pos.Y != -3 {
		t.Fatalf("pedestrian start = %v", pos)
	}
	// After trigger + 2 s the pedestrian is at the lane centerline.
	pos, _ = ped.At(7 * time.Second)
	if math.Abs(pos.Y) > 1e-9 {
		t.Fatalf("pedestrian at t+2 = %v, want y=0", pos)
	}
	if ped.Kind != KindPedestrian {
		t.Fatalf("kind = %v", ped.Kind)
	}
}

func TestCorridorLandmarks(t *testing.T) {
	w := NewCorridor(100, sim.NewRNG(2))
	if len(w.Landmarks) < 20 {
		t.Fatalf("landmarks = %d, want >= 20", len(w.Landmarks))
	}
	vis := w.LandmarksInFOV(Pose{Pos: mathx.Vec2{X: 10}}, 20, math.Pi*0.8)
	if len(vis) == 0 {
		t.Fatal("no landmarks visible mid-corridor")
	}
	for _, i := range vis {
		if w.Landmarks[i].XY().DistTo(mathx.Vec2{X: 10}) > 20 {
			t.Fatal("landmark beyond range returned")
		}
	}
}

func TestCampusLoop(t *testing.T) {
	w := CampusLoop(80, sim.NewRNG(3))
	if len(w.Lanes) != 4 {
		t.Fatalf("lanes = %d", len(w.Lanes))
	}
	if len(w.Landmarks) < 40 {
		t.Fatalf("landmarks = %d", len(w.Landmarks))
	}
	if len(w.Obstacles) != 1 {
		t.Fatalf("obstacles = %d", len(w.Obstacles))
	}
	total := 0.0
	for _, l := range w.Lanes {
		total += l.Length()
	}
	if math.Abs(total-320) > 1e-9 {
		t.Fatalf("perimeter = %v", total)
	}
}

func TestRouteActiveLane(t *testing.T) {
	r := Route{Lanes: []Lane{
		{Start: mathx.Vec2{}, End: mathx.Vec2{X: 80}, Width: 3},
		{Start: mathx.Vec2{X: 80}, End: mathx.Vec2{X: 80, Y: 80}, Width: 3},
	}}
	if got := r.ActiveLane(mathx.Vec2{X: 40, Y: 0.5}); got != 0 {
		t.Fatalf("mid leg 1 active = %d", got)
	}
	if got := r.ActiveLane(mathx.Vec2{X: 80.2, Y: 30}); got != 1 {
		t.Fatalf("mid leg 2 active = %d", got)
	}
	// Corner tie goes to the later leg (handover).
	if got := r.ActiveLane(mathx.Vec2{X: 80, Y: 0}); got != 1 {
		t.Fatalf("corner active = %d, want handover to 1", got)
	}
	if r.TotalLength() != 160 {
		t.Fatalf("total = %v", r.TotalLength())
	}
}
