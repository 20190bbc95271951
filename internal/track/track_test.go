package track

import (
	"math"
	"testing"
	"time"

	"sov/internal/sensors"
	"sov/internal/vision"
)

// renderTarget draws a textured box centered at (cx, cy) in camera-frame
// meters at the given depth.
func renderTarget(cxM, cyM float64) *vision.Image {
	s := vision.Scene{
		Background: 2, BgDepth: 25,
		Boxes: []vision.Box{{X: cxM, Y: cyM, Z: 6, W: 1.8, H: 1.8, Texture: 17}},
	}
	return s.Render(vision.DefaultIntrinsics(), 0)
}

func TestKCFTracksMovingTarget(t *testing.T) {
	intr := vision.DefaultIntrinsics()
	im0 := renderTarget(0, 0)
	k := NewKCF(32)
	k.Init(im0, intr.Cx, intr.Cy)

	// Move the target right in steps of 0.1 m at 6 m depth → 2 px/frame.
	trueX := intr.Cx
	for step := 1; step <= 8; step++ {
		m := 0.1 * float64(step)
		im := renderTarget(m, 0)
		trueX = intr.Cx + m/6*vision.Fx
		r := k.Update(im)
		if math.Abs(r.X-trueX) > 2.0 {
			t.Fatalf("step %d: tracked x = %.1f, want %.1f", step, r.X, trueX)
		}
		if math.Abs(r.Y-intr.Cy) > 2.0 {
			t.Fatalf("step %d: tracked y = %.1f, want %.1f", step, r.Y, intr.Cy)
		}
	}
	if math.Abs(k.cx-trueX) > 2.0 {
		t.Fatalf("final center %v, want %v", k.cx, trueX)
	}
}

func TestKCFStationaryTargetStays(t *testing.T) {
	intr := vision.DefaultIntrinsics()
	im := renderTarget(0, 0)
	k := NewKCF(32)
	k.Init(im, intr.Cx, intr.Cy)
	for i := 0; i < 5; i++ {
		r := k.Update(im)
		if math.Abs(r.X-intr.Cx) > 0.5 || math.Abs(r.Y-intr.Cy) > 0.5 {
			t.Fatalf("drifted to (%.2f, %.2f)", r.X, r.Y)
		}
	}
}

func TestKCFUpdateWithoutInit(t *testing.T) {
	k := NewKCF(16)
	if r := k.Update(vision.NewImage(64, 64)); r != (Result{}) {
		t.Fatalf("update without init should not move: %+v", r)
	}
}

func TestKCFPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKCF(20)
}

func TestRadarTrackerBuildsTrajectory(t *testing.T) {
	rt := NewRadarTracker()
	// Target approaching from 20 m at -2 m/s along the boresight.
	for i := 0; i <= 20; i++ {
		ti := time.Duration(i) * 50 * time.Millisecond
		rng := 20 - 2*ti.Seconds()
		rets := []sensors.RadarReturn{{ObstacleID: 1, Range: rng, Bearing: 0, RadialVel: -2, Time: ti}}
		rt.ObserveInto(ti, rets, nil)
	}
	tracks := rt.tracks
	if len(tracks) != 1 {
		t.Fatalf("confirmed tracks = %d, want 1", len(tracks))
	}
	tr := tracks[0]
	if math.Abs(tr.Pos.X-18) > 0.5 {
		t.Fatalf("track pos = %v, want x≈18", tr.Pos)
	}
	if math.Abs(tr.Vel.X-(-2)) > 0.5 {
		t.Fatalf("track vel = %v, want x≈-2", tr.Vel)
	}
}

func TestRadarTrackerSeparatesTargets(t *testing.T) {
	rt := NewRadarTracker()
	for i := 0; i <= 10; i++ {
		ti := time.Duration(i) * 50 * time.Millisecond
		rets := []sensors.RadarReturn{
			{ObstacleID: 1, Range: 10, Bearing: 0, RadialVel: 0, Time: ti},
			{ObstacleID: 2, Range: 10, Bearing: 0.6, RadialVel: 0, Time: ti},
		}
		rt.ObserveInto(ti, rets, nil)
	}
	if got := len(rt.tracks); got != 2 {
		t.Fatalf("tracks = %d, want 2", got)
	}
}

func TestRadarTrackerExpiresStaleTracks(t *testing.T) {
	rt := NewRadarTracker()
	rt.ObserveInto(0, []sensors.RadarReturn{{Range: 10, Bearing: 0}}, nil)
	// No observations for > MaxAge.
	out := rt.ObserveInto(time.Second, nil, nil)
	if len(out) != 0 {
		t.Fatalf("stale track survived: %v", out)
	}
}

func TestRadarTrackerGateRejectsJumps(t *testing.T) {
	rt := NewRadarTracker()
	rt.ObserveInto(0, []sensors.RadarReturn{{Range: 10, Bearing: 0}}, nil)
	// A return 8 m away should start a new track, not teleport the old.
	out := rt.ObserveInto(50*time.Millisecond, []sensors.RadarReturn{{Range: 18, Bearing: 0}}, nil)
	if len(out) != 2 {
		t.Fatalf("tracks = %d, want 2 (gate must reject)", len(out))
	}
}

func TestRadarTrackerVelocityFromTrajectoryNotJustRadial(t *testing.T) {
	rt := NewRadarTracker()
	// Crossing target: constant range 10 m, bearing sweeping → tangential
	// velocity invisible to radial Doppler but visible to the trajectory.
	for i := 0; i <= 30; i++ {
		ti := time.Duration(i) * 50 * time.Millisecond
		b := -0.3 + 0.02*float64(i)
		rets := []sensors.RadarReturn{{Range: 10, Bearing: b, RadialVel: 0, Time: ti}}
		rt.ObserveInto(ti, rets, nil)
	}
	tracks := rt.tracks
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	// Tangential speed ≈ 10 m * 0.4 rad/s = 4 m/s.
	if tracks[0].Vel.Norm() < 1.5 {
		t.Fatalf("trajectory velocity = %v, want tangential component", tracks[0].Vel)
	}
}

func BenchmarkKCFUpdate32(b *testing.B) {
	intr := vision.DefaultIntrinsics()
	im := renderTarget(0, 0)
	k := NewKCF(32)
	k.Init(im, intr.Cx, intr.Cy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Update(im)
	}
}

func BenchmarkKCFUpdate64(b *testing.B) {
	intr := vision.DefaultIntrinsics()
	im := renderTarget(0, 0)
	k := NewKCF(64)
	k.Init(im, intr.Cx, intr.Cy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Update(im)
	}
}

func BenchmarkRadarTrackerObserve(b *testing.B) {
	rt := NewRadarTracker()
	rets := []sensors.RadarReturn{
		{Range: 10, Bearing: 0, RadialVel: -1},
		{Range: 15, Bearing: 0.3, RadialVel: 0.5},
		{Range: 20, Bearing: -0.4, RadialVel: -2},
	}
	var out []RadarTrack
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = rt.ObserveInto(time.Duration(i)*50*time.Millisecond, rets, out[:0])
	}
}
