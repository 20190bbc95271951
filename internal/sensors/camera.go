package sensors

import (
	"time"

	"sov/internal/sim"
)

// CameraConfig describes one camera module.
type CameraConfig struct {
	Name string
	// Exposure is the shutter-open time per frame.
	Exposure time.Duration
	// Clock is the camera's local oscillator, used when free-running.
	Clock Clock
}

// DefaultCameraConfig returns the deployed 30 FPS global-shutter config.
// Exposure + CameraReadout are the *constant* delays the
// hardware-collaborative sync design compensates in software.
func DefaultCameraConfig(name string) CameraConfig {
	return CameraConfig{
		Name:     name,
		Exposure: 8 * time.Millisecond,
	}
}

// CameraReadout is the sensor-to-interface transmission time (analog-buffer
// readout + MIPI/CSI-2 transfer); constant per the paper.
const CameraReadout = 12 * time.Millisecond

// Frame is one camera capture.
type Frame struct {
	// TrueCaptureTime is the ground-truth mid-exposure instant (what an
	// ideal synchronizer would timestamp).
	TrueCaptureTime time.Duration
	// ArrivalTime is when the frame reached the consumer (true time).
	ArrivalTime time.Duration
}

// FrameBytes is the raw 1920×1080 frame size (16 bpp Bayer) — the reason
// the hardware synchronizer does NOT route frames through itself (a 1080p
// frame is ~6 MB more than a 20-byte IMU sample).
const FrameBytes = 1920 * 1080 * 2

// The deployed cameras' free-running frame rate, and its period in whole
// nanoseconds.
const (
	cameraFPS    = 30
	cameraPeriod = time.Second / cameraFPS
)

// Camera produces frames either free-running on its local clock or from an
// external trigger (the hardware synchronizer).
type Camera struct {
	Config CameraConfig
}

// NewCamera returns a camera with the given config.
func NewCamera(cfg CameraConfig) *Camera { return &Camera{Config: cfg} }

// CaptureAt produces the frame for a trigger at true time t.
func (c *Camera) CaptureAt(trueTrigger time.Duration) Frame {
	cfg := c.Config
	mid := trueTrigger + cfg.Exposure/2
	interfaceArrival := trueTrigger + cfg.Exposure + CameraReadout
	return Frame{
		TrueCaptureTime: mid,
		ArrivalTime:     interfaceArrival,
	}
}

// FreeRunTriggers returns the true times at which a free-running camera
// fires during [0, horizon), according to its own (drifting) clock.
func (c *Camera) FreeRunTriggers(horizon time.Duration) []time.Duration {
	var out []time.Duration
	for local := time.Duration(0); ; local += cameraPeriod {
		trueT := c.Config.Clock.TrueFromLocal(local)
		if trueT >= horizon {
			return out
		}
		if trueT >= 0 {
			out = append(out, trueT)
		}
	}
}

// The deployed IMU's sample rate (8× camera) and white-noise standard
// deviations.
const (
	imuRateHz                = 240
	imuGyroNoiseStd  float64 = 0.003 // rad/s
	imuAccelNoiseStd float64 = 0.03  // m/s²
)

// IMUConfig describes the inertial measurement unit.
type IMUConfig struct {
	// Clock is the IMU's local oscillator.
	Clock Clock
	// GyroBias / AccelBias are constant biases the VIO estimates.
	GyroBias  float64 // rad/s (yaw axis)
	AccelBias float64 // m/s² (body x)
}

// DefaultIMUConfig returns the deployed 240 Hz configuration.
func DefaultIMUConfig() IMUConfig {
	return IMUConfig{
		GyroBias:  0.002,
		AccelBias: 0.05,
	}
}

// IMUSample is one inertial measurement: body-frame acceleration and
// angular rate, plus the timestamps the sync layers compare.
type IMUSample struct {
	AccelX, AccelY float64 // body frame, m/s²
	YawRate        float64 // rad/s
}

// SampleBytes is the IMU sample wire size; small enough that the hardware
// synchronizer timestamps and forwards IMU data itself.
const SampleBytes = 20

// IMU generates samples from ground-truth motion with noise and bias.
type IMU struct {
	Config IMUConfig
	rng    *sim.RNG
}

// NewIMU returns an IMU with its own RNG stream.
func NewIMU(cfg IMUConfig, rng *sim.RNG) *IMU {
	return &IMU{Config: cfg, rng: rng}
}

// Period returns the sample period.
func (u *IMU) Period() time.Duration {
	return time.Second / imuRateHz
}

// SampleAt produces the measurement for a trigger at true time t given the
// ground-truth body-frame acceleration (ax, ay) and yaw rate.
func (u *IMU) SampleAt(trueT time.Duration, ax, ay, yawRate float64) IMUSample {
	cfg := u.Config
	return IMUSample{
		AccelX:  ax + cfg.AccelBias + u.rng.Normal(0, imuAccelNoiseStd),
		AccelY:  ay + u.rng.Normal(0, imuAccelNoiseStd),
		YawRate: yawRate + cfg.GyroBias + u.rng.Normal(0, imuGyroNoiseStd),
	}
}
