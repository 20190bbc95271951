package sensors

import (
	"math"
	"testing"

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
