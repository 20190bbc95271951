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
	d := New(DefaultConfig(), w, sim.NewRNG(1))
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
	d := New(DefaultConfig(), w, sim.NewRNG(2))
	for i := 0; i < 2000; i++ {
		d.DetectInto(nil, 0, world.Pose{})
	}
	_, missed, _ := d.Stats()
	if missed == 0 {
		t.Fatal("a 97%-recall detector must miss sometimes — the premise of the reactive path")
	}
}

func TestDetectProducesFalsePositives(t *testing.T) {
	d := New(DefaultConfig(), &world.World{}, sim.NewRNG(3))
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
	cfg := DefaultConfig()
	cfg.FalsePositiveRate = 0
	d := New(cfg, w, sim.NewRNG(4))
	for i := 0; i < 500; i++ {
		if objs := d.DetectInto(nil, 0, world.Pose{}); len(objs) != 0 {
			t.Fatalf("detected out-of-view object: %+v", objs)
		}
	}
}

func TestVehicleFramePosition(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: 0, Y: 10}, 0.5)
	cfg := DefaultConfig()
	cfg.FalsePositiveRate = 0
	cfg.RangeNoiseStd = 0
	cfg.BearingNoiseStd = 0
	cfg.Recall = 1
	d := New(cfg, w, sim.NewRNG(5))
	// Facing +Y, the object is dead ahead → vehicle-frame +X.
	pose := world.Pose{Heading: math.Pi / 2}
	objs := d.DetectInto(nil, 0, pose)
	if len(objs) != 1 {
		t.Fatalf("objs = %d", len(objs))
	}
	if math.Abs(objs[0].Pos.X-10) > 1e-6 || math.Abs(objs[0].Pos.Y) > 1e-6 {
		t.Fatalf("vehicle-frame pos = %v, want (10,0)", objs[0].Pos)
	}
	back := ToWorld(pose, objs[0].Pos)
	if back.DistTo(mathx.Vec2{X: 0, Y: 10}) > 1e-6 {
		t.Fatalf("ToWorld = %v", back)
	}
}

func TestClassConfusion(t *testing.T) {
	w := &world.World{}
	w.AddCutInPedestrian(10, 0, 0) // pedestrian standing at x=10, y=-3... place in view
	w.Obstacles[0].Traj = world.StaticTrajectory(mathx.Vec2{X: 10})
	cfg := DefaultConfig()
	cfg.FalsePositiveRate = 0
	cfg.Recall = 1
	d := New(cfg, w, sim.NewRNG(6))
	wrong := 0
	n := 3000
	for i := 0; i < n; i++ {
		for _, o := range d.DetectInto(nil, 0, world.Pose{}) {
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
