package detect

import (
	"math"
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
	"sov/internal/world"
)

func testWorld() *world.World {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: 10}, 0.5)
	return w
}

func TestDetectFindsCloseObject(t *testing.T) {
	w := testWorld()
	d := New(Config{}, w, sim.NewRNG(1))
	found := 0
	n := 1000
	for i := 0; i < n; i++ {
		objs := d.DetectInto(nil, time.Duration(i)*33*time.Millisecond, world.Pose{})
		for _, o := range objs {
			if o.ID >= 0 { // negative IDs are hallucinations
				found++
				if math.Abs(o.Range-10) > 1.5 {
					t.Fatalf("range = %v, want ~10", o.Range)
				}
				if math.Abs(o.Bearing) > 0.1 {
					t.Fatalf("bearing = %v", o.Bearing)
				}
			}
		}
	}
	// Recall at 10 m with falloff ≈ 0.97*(1-10/35*0.5) ≈ 0.83.
	rate := float64(found) / float64(n)
	if rate < 0.75 || rate > 0.95 {
		t.Fatalf("detection rate = %v, want ~0.83", rate)
	}
}

func TestDetectMissesSomeObjects(t *testing.T) {
	w := testWorld()
	d := New(Config{}, w, sim.NewRNG(2))
	for i := 0; i < 2000; i++ {
		d.DetectInto(nil, 0, world.Pose{})
	}
	_, missed, _ := d.Stats()
	if missed == 0 {
		t.Fatal("a 97%-recall detector must miss sometimes — the premise of the reactive path")
	}
}

func TestDetectProducesFalsePositives(t *testing.T) {
	d := New(Config{}, &world.World{}, sim.NewRNG(3))
	fpSeen := false
	for i := 0; i < 2000; i++ {
		for _, o := range d.DetectInto(nil, 0, world.Pose{}) {
			fpSeen = true // the world is empty: every object is hallucinated
			if o.ID >= 0 {
				t.Fatal("false positives must carry negative IDs")
			}
		}
	}
	if !fpSeen {
		t.Fatal("expected occasional false positives")
	}
	frames, _, fps := d.Stats()
	if frames != 2000 || fps == 0 {
		t.Fatalf("frames=%d fps=%d", frames, fps)
	}
}

func TestDetectRespectsFOVAndRange(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: -10}, 0.5) // behind
	w.AddStaticObstacle(mathx.Vec2{X: 100}, 0.5) // too far
	d := New(Config{}, w, sim.NewRNG(4))
	for i := 0; i < 500; i++ {
		for _, o := range d.DetectInto(nil, 0, world.Pose{}) {
			if o.ID >= 0 { // negative IDs are hallucinations
				t.Fatalf("detected out-of-view object: %+v", o)
			}
		}
	}
}

func TestVehicleFramePosition(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: 0, Y: 10}, 0.5)
	d := New(Config{}, w, sim.NewRNG(5))
	// Facing +Y, the object is dead ahead → vehicle-frame +X, at the range
	// and bearing the detector reports (both carry the channel's noise).
	pose := world.Pose{Heading: math.Pi / 2}
	seen := 0
	for i := 0; i < 50; i++ {
		for _, o := range d.DetectInto(nil, 0, pose) {
			if o.ID < 0 {
				continue
			}
			seen++
			if math.Abs(o.Range-10) > 1.5 || math.Abs(o.Bearing) > 0.1 {
				t.Fatalf("range, bearing = %v, %v, want ~10, ~0", o.Range, o.Bearing)
			}
			want := mathx.Vec2{X: o.Range * math.Cos(o.Bearing), Y: o.Range * math.Sin(o.Bearing)}
			if o.Pos.DistTo(want) > 1e-6 {
				t.Fatalf("vehicle-frame pos = %v, want %v", o.Pos, want)
			}
			wantWorld := mathx.Vec2{X: o.Range * math.Cos(o.Bearing+pose.Heading), Y: o.Range * math.Sin(o.Bearing+pose.Heading)}
			if back := ToWorld(pose, o.Pos); back.DistTo(wantWorld) > 1e-6 {
				t.Fatalf("ToWorld = %v, want %v", back, wantWorld)
			}
		}
	}
	if seen == 0 {
		t.Fatal("the object dead ahead was never detected")
	}
}

func TestClassConfusion(t *testing.T) {
	w := &world.World{}
	w.AddCutInPedestrian(10, 0, 0) // pedestrian standing at x=10, y=-3... place in view
	w.Obstacles[0].Traj = world.StaticTrajectory(mathx.Vec2{X: 10})
	d := New(Config{}, w, sim.NewRNG(6))
	wrong, n := 0, 0
	for i := 0; i < 3000; i++ {
		for _, o := range d.DetectInto(nil, 0, world.Pose{}) {
			if o.ID < 0 {
				continue // a hallucination's kind is not a label of the pedestrian
			}
			n++
			if o.Kind != world.KindPedestrian {
				wrong++
			}
		}
	}
	rate := float64(wrong) / float64(n)
	if rate < 0.01 || rate > 0.12 {
		t.Fatalf("class confusion rate = %v, want ~0.05", rate)
	}
}
