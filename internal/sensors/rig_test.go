package sensors

import (
	"math"
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
	"sov/internal/world"
)

func TestRadarRigCovers360(t *testing.T) {
	w := &world.World{}
	// Obstacles on all four sides.
	w.AddStaticObstacle(mathx.Vec2{X: 12}, 0.5)
	w.AddStaticObstacle(mathx.Vec2{X: -12}, 0.5)
	w.AddStaticObstacle(mathx.Vec2{Y: 12}, 0.5)
	w.AddStaticObstacle(mathx.Vec2{Y: -12}, 0.5)
	rig := NewRadarRig(w, sim.NewRNG(1))
	if len(rig.Units) != 6 {
		t.Fatalf("units = %d, want 6 (Table I)", len(rig.Units))
	}
	rets := rig.ScanAllInto(nil, 0, world.Pose{})
	seen := map[string]bool{}
	for _, r := range rets {
		quadrant := "front"
		switch {
		case math.Abs(r.VehicleBearing) < math.Pi/4:
			quadrant = "front"
		case math.Abs(r.VehicleBearing) > 3*math.Pi/4:
			quadrant = "rear"
		case r.VehicleBearing > 0:
			quadrant = "left"
		default:
			quadrant = "right"
		}
		seen[quadrant] = true
	}
	for _, q := range []string{"front", "rear", "left", "right"} {
		if !seen[q] {
			t.Fatalf("no returns from %s quadrant: %+v", q, rets)
		}
	}
}

func TestRadarRigVehicleFramePosition(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: 10}, 0.5)
	rig := NewRadarRig(w, sim.NewRNG(2))
	// Vehicle rotated 90°: the obstacle at world +X is at vehicle -Y.
	pose := world.Pose{Heading: math.Pi / 2}
	ret, ok := rig.NearestInSector(0, pose, -math.Pi/2, 0.5)
	if !ok {
		t.Fatal("no return in right sector")
	}
	if math.Abs(ret.VehiclePos.Y+10) > 1.5 || math.Abs(ret.VehiclePos.X) > 2.5 {
		t.Fatalf("vehicle-frame pos = %v, want ~(0,-10)", ret.VehiclePos)
	}
}

func TestNearestInSectorPicksClosest(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: 20}, 0.5)
	w.AddStaticObstacle(mathx.Vec2{X: 8}, 0.5)
	rig := NewRadarRig(w, sim.NewRNG(3))
	ret, ok := rig.NearestInSector(0, world.Pose{}, 0, 0.4)
	if !ok {
		t.Fatal("no forward return")
	}
	if math.Abs(ret.VehiclePos.Norm()-8) > 1 {
		t.Fatalf("nearest = %v, want ~8 m", ret.VehiclePos.Norm())
	}
}

func TestNearestInSectorRespectsSector(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: -8}, 0.5) // behind only
	rig := NewRadarRig(w, sim.NewRNG(4))
	if _, ok := rig.NearestInSector(0, world.Pose{}, 0, 0.4); ok {
		t.Fatal("rear obstacle leaked into the forward sector")
	}
	if _, ok := rig.NearestInSector(0, world.Pose{}, math.Pi, 0.4); !ok {
		t.Fatal("rear sector missed the rear obstacle")
	}
}

func TestSonarRigRing(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: 3}, 0.3)
	rig := NewSonarRig(w, sim.NewRNG(5))
	if len(rig.Units) != 8 {
		t.Fatalf("units = %d, want 8 (Table I)", len(rig.Units))
	}
	d, ok := rig.NearestInSector(0, world.Pose{}, 0, math.Pi/4)
	if !ok {
		t.Fatal("forward sonar missed a 3 m obstacle")
	}
	if math.Abs(d-3) > 0.6 {
		t.Fatalf("sonar distance = %v, want ~3", d)
	}
	// Nothing behind.
	if _, ok := rig.NearestInSector(0, world.Pose{}, math.Pi, math.Pi/4); ok {
		t.Fatal("rear sonar hallucinated")
	}
}

// TestSweepWindowServesEveryUnit holds the window a sweep sets to its
// purpose: each of the six views, and each ping of a sonar ring sharing the
// frame at the same instant, walks only the obstacles inside the window,
// at headings that lay each mount's offset along an axis (where a unit's
// box comes closest to the window's edge) and far from the origin.
func TestSweepWindowServesEveryUnit(t *testing.T) {
	w := &world.World{}
	rig := NewRadarRig(w, sim.NewRNG(6))
	sonar := NewSonarRig(w, sim.NewRNG(7))
	f := world.NewFrame(w)
	rig.UseFrame(f)
	sonar.UseFrame(f)
	var headings []float64
	for _, m := range rig.Mounts {
		for k := 0.0; k < 4; k++ {
			headings = append(headings, mathx.WrapAngle(k*math.Pi/2-math.Atan2(m.Offset.Y, m.Offset.X)))
		}
	}
	for k, origin := range []mathx.Vec2{{}, {X: 1e6, Y: -3e5}} {
		at := time.Duration(k) * time.Second // a frame keys its samples on t
		w.Obstacles = nil
		for i := 0; i < 40; i++ { // a ring of obstacles at 8 to 86 m
			ang := float64(i) * 2.4
			w.AddStaticObstacle(origin.Add(mathx.Vec2{X: math.Cos(ang), Y: math.Sin(ang)}.Scale(8+2*float64(i))), 0.5)
		}
		for _, h := range headings {
			pose := world.Pose{Pos: origin, Heading: h}
			inside := int64(0)
			for _, o := range w.Obstacles {
				pos, _ := o.At(at)
				if d := pos.Sub(origin); max(math.Abs(d.X), math.Abs(d.Y)) <= rig.reach {
					inside++
				}
			}
			if inside == 0 || inside == int64(len(w.Obstacles)) {
				t.Fatalf("the window holds %d of %d obstacles; the test needs some on each side", inside, len(w.Obstacles))
			}
			before := f.Visits()
			rig.ScanAllInto(nil, at, pose)
			if got, want := f.Visits()-before, int64(len(rig.Units))*inside; got != want {
				t.Fatalf("heading %v at %v: the sweep walked %d obstacles, want %d (%d per unit)", h, origin, got, want, inside)
			}
			before = f.Visits()
			sonar.NearestInSector(at, pose, 0, math.Pi)
			if got, want := f.Visits()-before, int64(len(sonar.Units))*inside; got != want {
				t.Fatalf("heading %v at %v: the sonar ring walked %d obstacles, want %d", h, origin, got, want)
			}
		}
	}
}
