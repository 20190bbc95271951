package vio

import (
	"math"
	"time"

	"sov/internal/mathx"
	"sov/internal/sensors"
	"sov/internal/sim"
	"sov/internal/stats"
	"sov/internal/world"
)

// Trajectory yields the ground-truth pose and angular velocity at time t.
type Trajectory func(t time.Duration) (world.Pose, mathx.Vec3)

// RunOptions configures a closed-loop trajectory run.
type RunOptions struct {
	Duration time.Duration
	// IMURate / CamRate in Hz (240 / 30 deployed).
	IMURate, CamRate float64
	// CameraTimestampOffset models camera–IMU desynchronization: a frame
	// physically captured at t is fused as if captured at t+offset
	// (Fig. 11b sweeps this). Under software-only synchronization the
	// offset is not constant — it is dominated by the variable sensor
	// pipeline latency (Fig. 12b) — so each frame draws its actual offset
	// from U(0, 2*CameraTimestampOffset), i.e. the configured value is
	// the mean desynchronization. (A constant, known offset could simply
	// be compensated in software; the variable part is what cannot.)
	CameraTimestampOffset time.Duration
	// GPS, when non-nil, is fused at 10 Hz (the GPS-VIO hybrid).
	GPS *sensors.GPS
	// GPSRate in Hz (default 10 when GPS is set).
	GPSRate float64
}

// RunResult summarizes a trajectory run.
type RunResult struct {
	Errors     *stats.Sample // position error sampled at camera rate, meters
	FinalError float64
	MaxError   float64
	TruePath   []mathx.Vec2
	EstPath    []mathx.Vec2
}

// RunTrajectory drives a VIO filter along a ground-truth trajectory,
// generating IMU samples (with noise/bias from imuCfg) and camera landmark
// observations from the world, and returns the error history. It is the
// engine behind the Fig. 11b experiment and the Sec. VI-B fusion study.
func RunTrajectory(imuCfg sensors.IMUConfig, traj Trajectory, w *world.World,
	opt RunOptions, rng *sim.RNG) RunResult {

	if opt.IMURate <= 0 {
		opt.IMURate = 240
	}
	if opt.CamRate <= 0 {
		opt.CamRate = 30
	}
	if opt.GPS != nil && opt.GPSRate <= 0 {
		opt.GPSRate = 10
	}

	imu := sensors.NewIMU(imuCfg, rng.Fork())
	obsRNG := rng.Fork()

	startPose, _ := traj(0)
	filter := New(startPose)
	// Seed the initial velocity from the trajectory (wheel odometry).
	p1, _ := traj(10 * time.Millisecond)
	filter.SetVelocity(p1.Pos.Sub(startPose.Pos).Scale(100))

	imuDT := time.Duration(float64(time.Second) / opt.IMURate)
	camDT := time.Duration(float64(time.Second) / opt.CamRate)
	var gpsDT time.Duration
	if opt.GPS != nil {
		gpsDT = time.Duration(float64(time.Second) / opt.GPSRate)
	}

	res := RunResult{Errors: stats.NewSample()}
	nextCam := camDT
	nextGPS := gpsDT

	for t := imuDT; t <= opt.Duration; t += imuDT {
		ax, ay, yawRate := bodyKinematics(traj, t)
		sample := imu.SampleAt(t, ax, ay, yawRate)
		filter.PropagateIMU(sample, imuDT)

		if t >= nextCam {
			nextCam += camDT
			// The frame fused now was captured at t - offset, with the
			// offset drawn per frame (variable pipeline latency).
			offset := opt.CameraTimestampOffset
			if offset > 0 {
				offset = time.Duration(obsRNG.Uniform(0, 2*float64(offset)))
			}
			captureT := t - offset
			if captureT < 0 {
				captureT = 0
			}
			truthAtCapture, _ := traj(captureT)
			obs := ObserveLandmarks(w, truthAtCapture, obsRNG)
			filter.UpdateCamera(obs)

			truthNow, _ := traj(t)
			err := filter.PositionError(truthNow)
			res.Errors.Observe(err)
			if err > res.MaxError {
				res.MaxError = err
			}
			res.TruePath = append(res.TruePath, truthNow.Pos)
			res.EstPath = append(res.EstPath, filter.Pose().Pos)
		}
		if opt.GPS != nil && t >= nextGPS {
			nextGPS += gpsDT
			truthNow, _ := traj(t)
			filter.UpdateGPS(opt.GPS.Fix(truthNow.Pos))
		}
	}
	truthEnd, _ := traj(opt.Duration)
	res.FinalError = filter.PositionError(truthEnd)
	return res
}

// CircleTrajectory returns a constant-curvature loop of the given radius at
// speed m/s, counter-clockwise around the origin, starting at (radius, 0).
func CircleTrajectory(radius, speed float64) Trajectory {
	omega := speed / radius
	return func(t time.Duration) (world.Pose, mathx.Vec3) {
		ang := omega * t.Seconds()
		return world.Pose{
			Pos:     mathx.Vec2{X: radius * math.Cos(ang), Y: radius * math.Sin(ang)},
			Heading: mathx.WrapAngle(ang + math.Pi/2),
		}, mathx.Vec3{Z: omega}
	}
}

// bodyKinematics differentiates the trajectory numerically to produce the
// ground-truth body-frame acceleration and yaw rate an ideal IMU would see.
// The yaw rate is differentiated from the heading rather than taken from the
// trajectory's analytic value so that pose and rate can never disagree.
func bodyKinematics(traj Trajectory, t time.Duration) (ax, ay, yawRate float64) {
	const h = time.Millisecond
	pm, _ := traj(t - h)
	p0, _ := traj(t)
	pp, _ := traj(t + h)
	hs := h.Seconds()
	// Central second difference for world acceleration.
	awx := (pp.Pos.X - 2*p0.Pos.X + pm.Pos.X) / (hs * hs)
	awy := (pp.Pos.Y - 2*p0.Pos.Y + pm.Pos.Y) / (hs * hs)
	// Rotate into the body frame.
	body := mathx.Vec2{X: awx, Y: awy}.Rotate(-p0.Heading)
	yawRate = mathx.WrapAngle(pp.Heading-pm.Heading) / (2 * hs)
	return body.X, body.Y, yawRate
}
