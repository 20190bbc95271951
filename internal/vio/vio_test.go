package vio

import (
	"math"
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/sensors"
	"sov/internal/sim"
	"sov/internal/world"
)

func TestStationaryStaysPut(t *testing.T) {
	imuCfg := sensors.DefaultIMUConfig()
	imuCfg.GyroBias = 0
	imuCfg.AccelBias = 0
	rng := sim.NewRNG(1)
	w := world.NewCorridor(50, rng)
	traj := func(time.Duration) (world.Pose, mathx.Vec3) {
		return world.Pose{Pos: mathx.Vec2{X: 10}}, mathx.Vec3{}
	}
	res := RunTrajectory(imuCfg, traj, w, RunOptions{Duration: 10 * time.Second}, rng)
	if res.FinalError > 0.5 {
		t.Fatalf("stationary drift = %v m", res.FinalError)
	}
}

// calibratedIMU returns the deployed IMU with its constant biases removed —
// production rigs calibrate these at the factory; the residual noise and
// bias random walk remain.
func calibratedIMU() sensors.IMUConfig {
	cfg := sensors.DefaultIMUConfig()
	cfg.GyroBias = 0
	cfg.AccelBias = 0
	return cfg
}

func TestVIOAccumulatesDriftWithDistance(t *testing.T) {
	// The paper (Sec. VI-B): "The longer distance the vehicle travels,
	// the more inaccurate the position estimation is."
	imuCfg := calibratedIMU()
	speed := 5.6
	traj := func(tt time.Duration) (world.Pose, mathx.Vec3) {
		return world.Pose{Pos: mathx.Vec2{X: speed * tt.Seconds()}}, mathx.Vec3{}
	}
	short := RunTrajectory(imuCfg, traj, world.NewCorridor(1200, sim.NewRNG(3)),
		RunOptions{Duration: 20 * time.Second}, sim.NewRNG(4))
	long := RunTrajectory(imuCfg, traj, world.NewCorridor(1200, sim.NewRNG(3)),
		RunOptions{Duration: 120 * time.Second}, sim.NewRNG(4))
	if long.Errors.Quantile(0.9) <= short.Errors.Quantile(0.9) {
		t.Fatalf("drift did not grow: short p90 %v vs long p90 %v",
			short.Errors.Quantile(0.9), long.Errors.Quantile(0.9))
	}
}

func TestGPSFusionBoundsDrift(t *testing.T) {
	// Sec. VI-B: fusing GNSS bounds the cumulative VIO error cheaply.
	imuCfg := calibratedIMU()
	speed := 5.6
	traj := func(tt time.Duration) (world.Pose, mathx.Vec3) {
		return world.Pose{Pos: mathx.Vec2{X: speed * tt.Seconds()}}, mathx.Vec3{}
	}
	w := world.NewCorridor(1200, sim.NewRNG(5))
	gps := sensors.NewGPS(sim.NewRNG(6))
	bare := RunTrajectory(imuCfg, traj, w, RunOptions{Duration: 120 * time.Second}, sim.NewRNG(7))
	fused := RunTrajectory(imuCfg, traj, w, RunOptions{Duration: 120 * time.Second, GPS: gps}, sim.NewRNG(7))
	if fused.Errors.Quantile(0.9) >= bare.Errors.Quantile(0.9) {
		t.Fatalf("GPS fusion did not help: fused p90 %v vs bare p90 %v",
			fused.Errors.Quantile(0.9), bare.Errors.Quantile(0.9))
	}
	if fused.Errors.Quantile(0.9) > 1.5 {
		t.Fatalf("fused p90 error = %v m, want bounded ~GPS noise", fused.Errors.Quantile(0.9))
	}
}

func TestCameraSyncOffsetDegradesLocalization(t *testing.T) {
	// Fig. 11b: a camera–IMU timestamp offset corrupts the trajectory.
	// Constant-curvature motion (steady yaw rate) makes the offset's
	// systematic bearing error unidirectional, as in the paper's loop.
	imuCfg := calibratedIMU()
	w := world.NewRing(20, sim.NewRNG(8))
	traj := CircleTrajectory(20, 5.6)
	synced := RunTrajectory(imuCfg, traj, w,
		RunOptions{Duration: 60 * time.Second}, sim.NewRNG(9))
	off40 := RunTrajectory(imuCfg, traj, w,
		RunOptions{Duration: 60 * time.Second, CameraTimestampOffset: 40 * time.Millisecond}, sim.NewRNG(9))
	if off40.Errors.Mean() < 2*synced.Errors.Mean() {
		t.Fatalf("40 ms offset should degrade localization: synced mean %v vs offset mean %v",
			synced.Errors.Mean(), off40.Errors.Mean())
	}
	if off40.MaxError < 1.5 {
		t.Fatalf("offset max error = %v m, expected meter-scale divergence", off40.MaxError)
	}
}

func TestUpdateGPSPullsEstimate(t *testing.T) {
	v := New(world.Pose{})
	before := v.Pose()
	v.UpdateGPS(sensors.GPSFix{Pos: mathx.Vec2{X: 100}})
	if v.Pose().Pos.X <= before.Pos.X {
		t.Fatal("a fix ahead of the estimate should pull it forward")
	}
}

func TestCovarianceStaysSymmetricPSD(t *testing.T) {
	imuCfg := sensors.DefaultIMUConfig()
	rng := sim.NewRNG(10)
	w := world.NewCorridor(100, rng)
	v := New(world.Pose{})
	imu := sensors.NewIMU(imuCfg, rng.Fork())
	obsRNG := rng.Fork()
	dt := 4167 * time.Microsecond
	for i := 0; i < 2000; i++ {
		tt := time.Duration(i) * dt
		v.PropagateIMU(imu.SampleAt(tt, 0.1, 0, 0.05), dt)
		if i%8 == 0 {
			truth := world.Pose{Pos: mathx.Vec2{X: float64(i) * 0.02}}
			v.UpdateCamera(ObserveLandmarks(w, truth, obsRNG))
		}
	}
	p := v.p
	for i := range p {
		for j := range p[i] {
			if math.Abs(p[i][j]-p[j][i]) > 1e-9 {
				t.Fatalf("covariance asymmetric at (%d,%d)", i, j)
			}
		}
		if p[i][i] < 0 {
			t.Fatalf("negative variance at %d: %v", i, p[i][i])
		}
	}
}

func TestLandmarkInitializationAfterSightings(t *testing.T) {
	v := New(world.Pose{})
	obs := []LandmarkObs{{ID: 7, Range: 5, Bearing: 0.1}}
	// The anchor commits after 4 sightings (averaged) and never again.
	for i := 0; i < 3; i++ {
		v.UpdateCamera(obs)
		if _, _, lms := v.Stats(); lms != 0 {
			t.Fatalf("landmark committed after %d sightings", i+1)
		}
	}
	v.UpdateCamera(obs)
	if _, _, lms := v.Stats(); lms != 1 {
		t.Fatal("landmark not committed after 4 sightings")
	}
	v.UpdateCamera(obs)
	_, updates, lms := v.Stats()
	if lms != 1 {
		t.Fatalf("landmark re-initialized: %d", lms)
	}
	if updates != 5 {
		t.Fatalf("updates = %d", updates)
	}
}

func TestEstimatorEstimatesGyroBias(t *testing.T) {
	imuCfg := sensors.DefaultIMUConfig()
	imuCfg.GyroBias = 0.01 // strong bias
	rng := sim.NewRNG(11)
	w := world.NewCorridor(300, rng)
	speed := 5.6
	traj := func(tt time.Duration) (world.Pose, mathx.Vec3) {
		return world.Pose{Pos: mathx.Vec2{X: speed * tt.Seconds()}}, mathx.Vec3{}
	}
	// Run long enough for the bias state to converge; use the known map
	// so the bias is cleanly observable.
	imu := sensors.NewIMU(imuCfg, rng.Fork())
	obsRNG := rng.Fork()
	v := NewWithMap(world.Pose{}, w)
	dt := 4167 * time.Microsecond
	for i := 1; i <= 20000; i++ {
		tt := time.Duration(i) * dt
		pose, _ := traj(tt)
		v.PropagateIMU(imu.SampleAt(tt, 0, 0, 0), dt)
		if i%8 == 0 {
			v.UpdateCamera(ObserveLandmarks(w, pose, obsRNG))
		}
	}
	if math.Abs(v.x[iBg]-0.01) > 0.005 {
		t.Fatalf("estimated gyro bias = %v, want ~0.01", v.x[iBg])
	}
}

func BenchmarkPropagateIMU(b *testing.B) {
	v := New(world.Pose{})
	imu := sensors.NewIMU(sensors.DefaultIMUConfig(), sim.NewRNG(1))
	s := imu.SampleAt(0, 0.5, 0.1, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.PropagateIMU(s, 4167*time.Microsecond)
	}
}

// BenchmarkUpdateCamera times one camera update against every landmark in
// view at x = 50 of a 100 m corridor, and reports that count as
// "landmarks" so ns/op states how many updates it covers.
func BenchmarkUpdateCamera(b *testing.B) {
	rng := sim.NewRNG(2)
	w := world.NewCorridor(100, rng)
	v := New(world.Pose{Pos: mathx.Vec2{X: 50}})
	obs := ObserveLandmarks(w, world.Pose{Pos: mathx.Vec2{X: 50}}, rng)
	v.UpdateCamera(obs) // initialize landmarks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.UpdateCamera(obs)
	}
	b.ReportMetric(float64(len(obs)), "landmarks")
}

// BenchmarkUpdateGPS times the EKF step the Sec. VI-B fusion section runs
// on every GPS fix: the GPS-VIO fusion that replaces drift-correcting
// compute.
func BenchmarkUpdateGPS(b *testing.B) {
	v := New(world.Pose{})
	fix := sensors.GPSFix{Pos: mathx.Vec2{X: 100}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.UpdateGPS(fix)
	}
}

func TestMapModeFilterConsistencyNEES(t *testing.T) {
	// Normalized estimation error squared on the position block: for a
	// consistent filter, err' * P⁻¹ * err has mean ≈ 2 (the position
	// dimension). Gross overconfidence (NEES >> 2) or underconfidence
	// (NEES << 2) would invalidate every covariance-based decision.
	imuCfg := calibratedIMU()
	rng := sim.NewRNG(31)
	w := world.NewCorridor(300, rng)
	speed := 5.6
	traj := func(tt time.Duration) (world.Pose, mathx.Vec3) {
		return world.Pose{Pos: mathx.Vec2{X: speed * tt.Seconds()}}, mathx.Vec3{}
	}
	imu := sensors.NewIMU(imuCfg, rng.Fork())
	obsRNG := rng.Fork()
	v := NewWithMap(world.Pose{}, w)
	v.SetVelocity(mathx.Vec2{X: speed})
	dt := 4167 * time.Microsecond
	nees := 0.0
	n := 0
	for i := 1; i <= 24000; i++ {
		tt := time.Duration(i) * dt
		ax, ay, yr := bodyKinematics(traj, tt)
		v.PropagateIMU(imu.SampleAt(tt, ax, ay, yr), dt)
		if i%8 == 0 {
			pose, _ := traj(tt)
			v.UpdateCamera(ObserveLandmarks(w, pose, obsRNG))
			if i > 4800 { // skip the convergence transient
				est := v.Pose().Pos
				ex, ey := est.X-pose.Pos.X, est.Y-pose.Pos.Y
				p := v.p
				pp := [4]float64{p[0][0], p[0][1], p[1][0], p[1][1]}
				var l [4]float64
				sol := [2]float64{ex, ey}
				if !mathx.SolveSPD(pp[:], l[:], sol[:]) {
					t.Fatal("position covariance not positive definite")
				}
				nees += ex*sol[0] + ey*sol[1]
				n++
			}
		}
	}
	mean := nees / float64(n)
	// Generous consistency band: within ~8x of the ideal value 2 in
	// either direction (landmark-map correlations bias NEES upward).
	if mean < 0.25 || mean > 16 {
		t.Fatalf("position NEES mean = %.2f over %d updates, want O(2)", mean, n)
	}
}

// NewWithMap returns a filter that localizes against a pre-constructed
// landmark map (the production configuration: the paper's vehicles localize
// in a global, pre-annotated map). Known landmarks bound the position error;
// the pure-odometry mode of New is what exhibits the cumulative drift of
// Sec. VI-B.
func NewWithMap(initial world.Pose, w *world.World) *VIO {
	v := New(initial)
	for i, lm := range w.Landmarks {
		v.landmarks[i] = landmark{pos: lm.XY(), std: 0.1} // survey-grade map
	}
	return v
}
