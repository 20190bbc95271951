package sensors

import (
	"math"
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/sim"
	"sov/internal/world"
)

func TestClockDriftAndOffset(t *testing.T) {
	c := Clock{DriftPPM: 100, Offset: 5 * time.Millisecond}
	trueT := 10 * time.Second
	// 100 ppm over 10 s = 1 ms drift, plus 5 ms offset.
	local := trueT + time.Millisecond + 5*time.Millisecond
	back := c.TrueFromLocal(local)
	if d := back - trueT; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("true time of local %v = %v, want ~%v", local, back, trueT)
	}
}

func TestPerfectClockIsIdentity(t *testing.T) {
	if PerfectClock.TrueFromLocal(time.Second) != time.Second {
		t.Fatal("perfect clock not identity")
	}
}

func TestCameraCapturePipeline(t *testing.T) {
	cam := NewCamera(DefaultCameraConfig("front-left"))
	f := cam.CaptureAt(100 * time.Millisecond)
	// Mid-exposure: trigger + 4 ms.
	if f.TrueCaptureTime != 104*time.Millisecond {
		t.Fatalf("capture time = %v", f.TrueCaptureTime)
	}
	// Interface arrival: trigger + 8 + 12 ms.
	if f.ArrivalTime != 120*time.Millisecond {
		t.Fatalf("arrival = %v", f.ArrivalTime)
	}
}

func TestCameraFrameBytes(t *testing.T) {
	// ~6 MB for a 1080p frame (the paper's figure motivating near-sensor
	// timestamping instead of routing frames through the synchronizer).
	if b := FrameBytes; b < 3_000_000 || b > 8_000_000 {
		t.Fatalf("frame bytes = %d", b)
	}
	if FrameBytes <= SampleBytes*1000 {
		t.Fatal("frame must be orders of magnitude larger than an IMU sample")
	}
}

func TestCameraPeriod(t *testing.T) {
	if cameraPeriod != time.Second/30 {
		t.Fatalf("period = %v", cameraPeriod)
	}
}

func TestFreeRunTriggersDrift(t *testing.T) {
	fast := NewCamera(CameraConfig{Name: "a", Clock: Clock{DriftPPM: 50000}}) // +5%
	slow := NewCamera(CameraConfig{Name: "b", Clock: Clock{}})
	horizon := 10 * time.Second
	fa := fast.FreeRunTriggers(horizon)
	sa := slow.FreeRunTriggers(horizon)
	// A fast oscillator reaches its local frame periods sooner in true
	// time, so it fires more true-time triggers over the same horizon.
	if len(fa) <= len(sa) {
		t.Fatalf("fast clock should fire more true-time triggers: fast=%d slow=%d", len(fa), len(sa))
	}
	// Triggers must be within horizon, non-negative, increasing.
	prev := -time.Nanosecond
	for _, tt := range sa {
		if tt < 0 || tt >= horizon || tt <= prev {
			t.Fatalf("bad trigger sequence: %v", tt)
		}
		prev = tt
	}
}

func TestFreeRunTriggersDivergeAcrossSensors(t *testing.T) {
	// Two 30 FPS cameras with slightly different oscillators lose frame
	// alignment over time: the core problem of Sec. VI-A.
	a := NewCamera(CameraConfig{Name: "a", Clock: Clock{DriftPPM: 200}})
	b := NewCamera(CameraConfig{Name: "b", Clock: Clock{DriftPPM: -200, Offset: time.Millisecond}})
	ta := a.FreeRunTriggers(60 * time.Second)
	tb := b.FreeRunTriggers(60 * time.Second)
	n := len(ta)
	if len(tb) < n {
		n = len(tb)
	}
	last := ta[n-1] - tb[n-1]
	if last < 0 {
		last = -last
	}
	if last < 5*time.Millisecond {
		t.Fatalf("drifting cameras should diverge by several ms, got %v", last)
	}
}

func TestIMUSampleNoiseAndBias(t *testing.T) {
	cfg := DefaultIMUConfig()
	u := NewIMU(cfg, sim.NewRNG(1))
	n := 5000
	var sumYaw, sumAx float64
	for i := 0; i < n; i++ {
		s := u.SampleAt(time.Duration(i)*u.Period(), 1.0, 0, 0.2)
		sumYaw += s.YawRate
		sumAx += s.AccelX
	}
	meanYaw := sumYaw / float64(n)
	meanAx := sumAx / float64(n)
	if math.Abs(meanYaw-(0.2+cfg.GyroBias)) > 0.001 {
		t.Fatalf("mean yaw = %v, want %v", meanYaw, 0.2+cfg.GyroBias)
	}
	if math.Abs(meanAx-(1.0+cfg.AccelBias)) > 0.01 {
		t.Fatalf("mean ax = %v", meanAx)
	}
}

func TestIMURateIs8xCamera(t *testing.T) {
	u := NewIMU(DefaultIMUConfig(), sim.NewRNG(2))
	ratio := cameraPeriod.Seconds() / u.Period().Seconds()
	if math.Abs(ratio-8) > 1e-4 {
		t.Fatalf("IMU/camera rate ratio = %v, want 8 (240 Hz vs 30 FPS)", ratio)
	}
}

func TestGPSNoiseStatistics(t *testing.T) {
	g := NewGPS(sim.NewRNG(4))
	var sumSq float64
	n := 2000
	for i := 0; i < n; i++ {
		f := g.Fix(mathx.Vec2{})
		sumSq += f.Pos.X * f.Pos.X
	}
	std := math.Sqrt(sumSq / float64(n))
	if math.Abs(std-0.5) > 0.05 {
		t.Fatalf("GPS noise std = %v, want ~0.5", std)
	}
}

func TestRadarMeasuresRadialVelocity(t *testing.T) {
	w := &world.World{}
	// Target ahead, closing at 2 m/s.
	w.Obstacles = append(w.Obstacles, &world.Obstacle{
		ID: 1, Kind: world.KindVehicle, Radius: 0.5,
		Traj: world.LinearTrajectory(mathx.Vec2{X: 20}, mathx.Vec2{X: -2}, 0),
	})
	r := NewRadar(w, sim.NewRNG(5))
	var sumVel, sumRange float64
	n := 500
	for i := 0; i < n; i++ {
		rets := r.ScanAtInto(nil, 0, world.Pose{})
		if len(rets) != 1 {
			t.Fatalf("returns = %d", len(rets))
		}
		sumVel += rets[0].RadialVel
		sumRange += rets[0].Range
	}
	if math.Abs(sumVel/float64(n)-(-2)) > 0.05 {
		t.Fatalf("mean radial vel = %v, want -2", sumVel/float64(n))
	}
	// The echo ranges to the near surface: center 20 m minus 0.5 m radius.
	if math.Abs(sumRange/float64(n)-19.5) > 0.1 {
		t.Fatalf("mean range = %v, want 19.5 (surface)", sumRange/float64(n))
	}
}

func TestRadarRespectsRangeLimit(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: 100}, 0.5)
	r := NewRadar(w, sim.NewRNG(7))
	if rets := r.ScanAtInto(nil, 0, world.Pose{}); len(rets) != 0 {
		t.Fatal("target beyond MaxRange returned")
	}
}

func TestSonarNearestOnly(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: 2}, 0.3)
	w.AddStaticObstacle(mathx.Vec2{X: 4}, 0.3)
	s := NewSonar(w, sim.NewRNG(8))
	p := s.PingAt(0, world.Pose{})
	if !p.Valid {
		t.Fatal("expected ping")
	}
	// Surface range: 2 m to center minus the 0.3 m radius.
	if math.Abs(p.Range-1.7) > 0.3 {
		t.Fatalf("range = %v, want ~1.7 (surface)", p.Range)
	}
}

func TestSonarClearPath(t *testing.T) {
	s := NewSonar(&world.World{}, sim.NewRNG(9))
	if p := s.PingAt(0, world.Pose{}); p.Valid {
		t.Fatal("clear path should be invalid ping")
	}
}

func TestSonarNonNegativeRange(t *testing.T) {
	w := &world.World{}
	w.AddStaticObstacle(mathx.Vec2{X: 0.01}, 0.3)
	s := NewSonar(w, sim.NewRNG(10))
	for i := 0; i < 100; i++ {
		if p := s.PingAt(0, world.Pose{}); p.Valid && p.Range < 0 {
			t.Fatal("negative sonar range")
		}
	}
}
