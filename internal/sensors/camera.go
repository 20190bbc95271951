package sensors

import (
	"fmt"
	"time"

	"sov/internal/sim"
)

// CameraConfig describes one camera module.
type CameraConfig struct {
	Name string
	// FPS is the frame rate when free-running (30 in the deployed rig).
	FPS float64
	// Exposure is the shutter-open time per frame.
	Exposure time.Duration
	// Readout is the sensor-to-interface transmission time (analog-buffer
	// readout + MIPI/CSI-2 transfer); constant per the paper.
	Readout time.Duration
	// Clock is the camera's local oscillator, used when free-running.
	Clock Clock
	// WidthPx/HeightPx size the frames (used by the vision substrate and
	// the bandwidth model).
	WidthPx, HeightPx int
}

// DefaultCameraConfig returns the deployed 30 FPS global-shutter config.
// Exposure + readout are the *constant* delays the hardware-collaborative
// sync design compensates in software.
func DefaultCameraConfig(name string) CameraConfig {
	return CameraConfig{
		Name:     name,
		FPS:      30,
		Exposure: 8 * time.Millisecond,
		Readout:  12 * time.Millisecond,
		WidthPx:  1920,
		HeightPx: 1080,
	}
}

// Frame is one camera capture.
type Frame struct {
	// TrueCaptureTime is the ground-truth mid-exposure instant (what an
	// ideal synchronizer would timestamp).
	TrueCaptureTime time.Duration
	// ArrivalTime is when the frame reached the consumer (true time).
	ArrivalTime time.Duration
}

// FrameBytes returns the raw frame size (16 bpp Bayer) — the reason the
// hardware synchronizer does NOT route frames through itself (a 1080p frame
// is ~6 MB more than a 20-byte IMU sample).
func (c CameraConfig) FrameBytes() int { return c.WidthPx * c.HeightPx * 2 }

// Period returns the frame period.
func (c CameraConfig) Period() time.Duration {
	if c.FPS <= 0 {
		panic(fmt.Sprintf("sensors: camera %q has non-positive FPS", c.Name))
	}
	return time.Duration(float64(time.Second) / c.FPS)
}

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
	interfaceArrival := trueTrigger + cfg.Exposure + cfg.Readout
	return Frame{
		TrueCaptureTime: mid,
		ArrivalTime:     interfaceArrival,
	}
}

// FreeRunTriggers returns the true times at which a free-running camera
// fires during [0, horizon), according to its own (drifting) clock.
func (c *Camera) FreeRunTriggers(horizon time.Duration) []time.Duration {
	var out []time.Duration
	period := c.Config.Period()
	for local := time.Duration(0); ; local += period {
		trueT := c.Config.Clock.TrueFromLocal(local)
		if trueT >= horizon {
			return out
		}
		if trueT >= 0 {
			out = append(out, trueT)
		}
	}
}

// IMUConfig describes the inertial measurement unit.
type IMUConfig struct {
	// RateHz is the sample rate (240 in the deployed rig: 8× camera).
	RateHz float64
	// Clock is the IMU's local oscillator.
	Clock Clock
	// GyroNoiseStd / AccelNoiseStd are white-noise standard deviations.
	GyroNoiseStd  float64 // rad/s
	AccelNoiseStd float64 // m/s²
	// GyroBias / AccelBias are constant biases the VIO estimates.
	GyroBias  float64 // rad/s (yaw axis)
	AccelBias float64 // m/s² (body x)
}

// DefaultIMUConfig returns the deployed 240 Hz configuration.
func DefaultIMUConfig() IMUConfig {
	return IMUConfig{
		RateHz:        240,
		GyroNoiseStd:  0.003,
		AccelNoiseStd: 0.03,
		GyroBias:      0.002,
		AccelBias:     0.05,
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
	return time.Duration(float64(time.Second) / u.Config.RateHz)
}

// SampleAt produces the measurement for a trigger at true time t given the
// ground-truth body-frame acceleration (ax, ay) and yaw rate.
func (u *IMU) SampleAt(trueT time.Duration, ax, ay, yawRate float64) IMUSample {
	cfg := u.Config
	return IMUSample{
		AccelX:  ax + cfg.AccelBias + u.rng.Normal(0, cfg.AccelNoiseStd),
		AccelY:  ay + u.rng.Normal(0, cfg.AccelNoiseStd),
		YawRate: yawRate + cfg.GyroBias + u.rng.Normal(0, cfg.GyroNoiseStd),
	}
}
