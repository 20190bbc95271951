// Package sensorsync implements the sensor-synchronization co-design of
// Sec. VI-A: the software-only baseline (application-layer timestamping
// after a variable-latency pipeline, Fig. 12a/b) and the hardware
// synchronizer (GPS-disciplined common timer, camera trigger downsampled 8×
// from the IMU trigger, near-sensor timestamping with constant-delay
// compensation, Fig. 12c), plus the stereo depth-error experiment of
// Fig. 11a driven through the real rendering + stereo-matching stack.
package sensorsync

import (
	"math"
	"time"

	"sov/internal/isp"
	"sov/internal/sensors"
	"sov/internal/sim"
	"sov/internal/stats"
	"sov/internal/vision"
)

// SynchronizerResources documents the hardware synchronizer's footprint
// (Sec. VI-A3: 1,443 LUTs, 1,587 registers, 5 mW).
type SynchronizerResources struct {
	LUTs, Registers int
	PowerW          float64
	// AddedLatency is the end-to-end latency cost of synchronization.
	AddedLatency time.Duration
}

// HardwareSynchronizerResources returns the deployed footprint.
func HardwareSynchronizerResources() SynchronizerResources {
	return SynchronizerResources{LUTs: 1443, Registers: 1587, PowerW: 0.005,
		AddedLatency: 800 * time.Microsecond}
}

// PairingResult summarizes a camera–IMU association experiment: the error
// between the true capture instant of each frame and the true sample
// instant of the IMU measurement it was associated with.
type PairingResult struct {
	Frames int
	MeanMs float64 // errors in milliseconds
	MaxMs  float64
	P99Ms  float64
}

func summarize(errs *stats.Sample, frames int) PairingResult {
	return PairingResult{
		Frames: frames,
		MeanMs: errs.Mean(),
		MaxMs:  errs.Max(),
		P99Ms:  errs.Quantile(0.99),
	}
}

// SoftwareSyncExperiment runs the Fig. 12a/b baseline: free-running camera
// and IMU on their own (drifting) oscillators, frames delivered through the
// variable-latency ISP/kernel pipeline, both timestamped at the application
// layer, then paired by nearest application timestamp.
func SoftwareSyncExperiment(horizon time.Duration, rng *sim.RNG) PairingResult {
	camCfg := sensors.DefaultCameraConfig("front-left")
	camCfg.Clock = sensors.Clock{DriftPPM: 150, Offset: 2 * time.Millisecond}
	cam := sensors.NewCamera(camCfg)
	imuCfg := sensors.DefaultIMUConfig()
	imuCfg.Clock = sensors.Clock{DriftPPM: -120, Offset: -1 * time.Millisecond}
	imu := sensors.NewIMU(imuCfg, rng.Fork())
	pipe := isp.DefaultPipeline()
	pipeRNG := rng.Fork()
	imuDelayRNG := rng.Fork()

	// IMU samples with application timestamps (small variable CPU delay).
	type appIMU struct {
		appTS  time.Duration
		trueTS time.Duration
	}
	var imuSamples []appIMU
	period := imu.Period()
	for t := time.Duration(0); t < horizon; t += period {
		// The IMU's local clock drives when it *thinks* it samples; the
		// application receives it after a variable delay.
		trueT := imuCfg.Clock.TrueFromLocal(t)
		if trueT < 0 || trueT >= horizon {
			continue
		}
		delay := time.Duration(imuDelayRNG.TruncNormal(1.5e6, 1e6, 0.1e6, 8e6))
		imuSamples = append(imuSamples, appIMU{appTS: trueT + delay, trueTS: trueT})
	}

	errs := stats.NewSample()
	frames := 0
	for _, trig := range cam.FreeRunTriggers(horizon) {
		f := cam.CaptureAt(trig)
		tr := pipe.Deliver(pipeRNG)
		appTS := f.ArrivalTime + tr.Total
		// Nearest application-timestamp IMU sample.
		best := time.Duration(math.MaxInt64)
		var bestTrue time.Duration
		for _, s := range imuSamples {
			d := s.appTS - appTS
			if d < 0 {
				d = -d
			}
			if d < best {
				best = d
				bestTrue = s.trueTS
			}
		}
		err := f.TrueCaptureTime - bestTrue
		if err < 0 {
			err = -err
		}
		errs.Observe(err.Seconds() * 1000)
		frames++
	}
	return summarize(errs, frames)
}

// HardwareSyncExperiment runs the Fig. 12c design: one common timer
// (initialized from GPS atomic time) triggers the IMU at 240 Hz and the
// cameras on every 8th trigger; IMU samples are timestamped inside the
// synchronizer; camera frames are timestamped at the sensor interface and
// adjusted in software by the constant exposure + readout delay.
func HardwareSyncExperiment(horizon time.Duration, rng *sim.RNG) PairingResult {
	camCfg := sensors.DefaultCameraConfig("front-left")
	cam := sensors.NewCamera(camCfg)
	imuCfg := sensors.DefaultIMUConfig()
	imu := sensors.NewIMU(imuCfg, rng.Fork())
	pipe := isp.DefaultPipeline()
	ifaceRNG := rng.Fork()

	errs := stats.NewSample()
	frames := 0
	imuPeriod := imu.Period()
	camEvery := 8
	i := 0
	for t := imuPeriod; t < horizon; t += imuPeriod {
		i++
		// IMU sample timestamped by the synchronizer at the trigger.
		imuTrue := t
		if i%camEvery != 0 {
			continue
		}
		// Camera triggered by the same pulse.
		f := cam.CaptureAt(t)
		// Sensor-interface timestamp: arrival plus the tiny interface
		// stage (the only variability left).
		ifaceTS := f.ArrivalTime + pipe.InterfaceDelay(ifaceRNG)
		// Software adjustment: subtract the constant exposure + readout
		// (from the sensor datasheet) to recover the trigger time; add
		// half the exposure for mid-exposure alignment.
		recovered := ifaceTS - camCfg.Exposure - sensors.CameraReadout + camCfg.Exposure/2
		// The associated IMU sample is the one from the same trigger.
		err := (f.TrueCaptureTime - recovered) + (t - imuTrue)
		if err < 0 {
			err = -err
		}
		errs.Observe(err.Seconds() * 1000)
		frames++
	}
	return summarize(errs, frames)
}

// DepthErrorAtOffset renders the Fig. 11a experiment for one inter-camera
// synchronization error: a textured target at depth objZ moving laterally
// at objSpeed m/s is captured by the left camera at t and by the right
// camera offset seconds later; the ELAS-style matcher estimates its depth
// and the absolute error against ground truth is returned. maxDepth clamps
// the estimate the way the deployed stack clamps its disparity search.
func DepthErrorAtOffset(offset time.Duration, objZ, objSpeed, maxDepth float64) float64 {
	rig := vision.DefaultStereoRig()
	left := vision.Scene{
		Background: 3, BgDepth: 30,
		Boxes: []vision.Box{{X: 0, Y: 0, Z: objZ, W: 2.5, H: 2, Texture: 21}},
	}
	// While the right camera waits, the object moves laterally.
	dx := objSpeed * offset.Seconds()
	right := vision.Scene{
		Background: 3, BgDepth: 30,
		Boxes: []vision.Box{{X: dx, Y: 0, Z: objZ, W: 2.5, H: 2, Texture: 21}},
	}
	l := left.Render(rig.Intr, 0)
	r := right.Render(rig.Intr, rig.Baseline)

	maxDisp := int(rig.DisparityFromDepth(1.5)) + 2
	m := vision.SupportPointStereo(l, r, maxDisp, 3, 8, 3)
	// Object occupies the image center; use the median disparity there.
	cx, cy := int(rig.Intr.Cx), int(rig.Intr.Cy)
	med, ok := vision.MedianDisparityIn(m, cx-20, cy-15, cx+20, cy+15)
	minDisp := rig.DisparityFromDepth(maxDepth)
	if !ok || float64(med) < minDisp {
		// Matching failed or depth beyond the stack's limit.
		return maxDepth - objZ
	}
	est := rig.DepthFromDisparity(float64(med))
	if est > maxDepth {
		est = maxDepth
	}
	return math.Abs(est - objZ)
}

// AnalyticDepthError is the closed-form counterpart used by the sweep
// benches: the moving object shifts by v·Δt between the two exposures,
// corrupting the disparity by f·v·Δt/Z.
func AnalyticDepthError(offset time.Duration, objZ, objSpeed, maxDepth float64) float64 {
	rig := vision.DefaultStereoRig()
	d := rig.DisparityFromDepth(objZ)
	shift := rig.Intr.Fx * objSpeed * offset.Seconds() / objZ
	est := rig.DepthFromDisparity(d - shift)
	if est > maxDepth || est < 0 || math.IsInf(est, 1) {
		est = maxDepth
	}
	return math.Abs(est - objZ)
}
