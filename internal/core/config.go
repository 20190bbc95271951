// Package core wires the Systems-on-a-Vehicle together: synchronized
// sensing, perception (localization ∥ scene understanding), MPC planning,
// the CAN/ECU/actuator chain, and the radar/sonar reactive path that
// overrides it all (Figs. 5 and 7). It runs as a discrete-event simulation
// on a virtual clock, with stage latencies drawn from the calibrated
// distributions of Sec. V-C, and produces the end-to-end latency
// characterization of Fig. 10 plus safety outcomes for the scenario studies.
package core

import (
	"time"

	"sov/internal/detect"
	"sov/internal/vehicle"
)

// Config selects the SoV build options; the zero-value-adjusted Default
// reflects the deployed vehicle.
type Config struct {
	// Seed drives every random stream in the run.
	Seed int64
	// Vehicle is the physical platform.
	Vehicle vehicle.Params
	// TargetSpeed is the cruise set point (m/s).
	TargetSpeed float64
	// ControlRate is the planning/command rate (10 Hz deployed).
	ControlRate float64
	// PhysicsRate integrates vehicle dynamics.
	PhysicsRate float64
	// RadarRate is inert: the reactive path's radar checks run at
	// ReactiveRate.
	//
	// Deprecated: nothing reads it. It stays only because benchmark/ assigns
	// it; ROADMAP item 7 drops it.
	RadarRate float64
	// ReactiveRate is the safety-override check rate. The six radar units
	// are staggered, so the fused forward view refreshes faster than any
	// single 20 Hz unit — which is how the reactive path achieves its
	// 30 ms reaction.
	ReactiveRate float64

	// FPGAOffload maps localization to the FPGA (our design). Disabling
	// it shares the GPU and inflates perception (Fig. 8 ablation).
	FPGAOffload bool
	// HardwareSync enables the hardware synchronizer; without it the
	// perception quality degrades per the Fig. 11 studies (modeled as
	// extra detection-position noise and localization error).
	HardwareSync bool
	// ReactivePath arms the radar/sonar safety override.
	ReactivePath bool
	// RadarTracking replaces KCF visual tracking with radar + spatial
	// synchronization (Sec. VI-B); when radar is unstable the KCF
	// fallback cost is paid.
	RadarTracking bool
	// EMPlanner swaps the MPC for the 33×-cost EM planner (ablation).
	EMPlanner bool
	// RPREnabled time-shares the FPGA localization front-end between the
	// feature-extract and feature-track bitstreams.
	RPREnabled bool
	// KeyframeEvery spaces feature-extraction keyframes (RPR swaps).
	KeyframeEvery int
	// Pipeline is inert: the overlapped stage runtime it selected is gone
	// and the control loop has one execution path (DESIGN.md §6).
	//
	// Deprecated: nothing reads it. It stays only because benchmark/, frozen
	// for the PR that removed the runtime, assigns it; ROADMAP item 7 records
	// the benchmark-only follow-up that drops it.
	Pipeline bool
	// PipelineForce is inert.
	//
	// Deprecated: see Pipeline.
	PipelineForce bool
	// Quant backs perception with the int8 fixed-point kernels
	// (internal/nn QNetwork, fixed-point ISP/stereo/decode): the dense
	// scene-understanding latency draws divide by platform.QuantSpeedup,
	// the software counterpart of moving those tasks onto the FPGA's
	// fixed-point dataflow (DESIGN.md §8).
	Quant bool
	// Sched attaches the online heterogeneous scheduler (internal/sched):
	// runtime task remapping, quant↔float operating-point switching under
	// thermal pressure, contention-aware co-location, and multi-camera
	// batching, all from observed virtual-time latencies (DESIGN.md §13).
	// It supersedes the FPGAOffload ablation — contention comes from the
	// chosen mapping instead.
	Sched bool
	// SchedMapping overrides the scheduler's initial "SU/Loc" mapping
	// (default GPU/FPGA, the deployed design).
	SchedMapping string
	// SchedStatic pins the scheduler to its initial mapping with all online
	// decisions disabled — the static baselines of the Fig. 6/8 dynamic
	// regeneration.
	SchedStatic bool
	// Cameras is the number of cameras feeding scene-understanding
	// inference per cycle (default 1). Without the scheduler the extra
	// inferences run sequentially; the scheduler batches them when scene
	// understanding sits on a batching-capable processor.
	Cameras int
	// AmbientC is the enclosure ambient temperature for the scheduler's
	// thermal model (default 25).
	AmbientC float64
	// DynamicKeyframe forces a localization keyframe whenever the scene
	// complexity reaches 0.6 — dynamic traffic extracts fresh features
	// nearly every frame, which is what shifts the RPR swap economics.
	DynamicKeyframe bool

	// LeanReport keeps the report's latency statistics as streaming
	// Welford accumulators instead of raw samples. A single vehicle's
	// characterization run wants the full Fig. 10 distributions; a fleet
	// of thousands of vehicles cannot afford per-cycle sample retention,
	// and only consumes the means and counters anyway.
	LeanReport bool
	// StartOffsetM places the vehicle this many meters along the route
	// centerline instead of at the first lane's start — fleet runs stagger
	// vehicles around a shared region loop with it. Zero keeps the
	// historical placement.
	StartOffsetM float64

	// Detector configures the oracle-noise detection channel.
	Detector detect.Config
}

const (
	// reactiveLatency is the radar→ECU override latency (30 ms deployed).
	reactiveLatency = 30 * time.Millisecond
	// reactiveMarginM pads the reactive trigger distance.
	reactiveMarginM float64 = 0.2

	// localizationErrorStd is the lateral/longitudinal standard deviation
	// of the pose estimate the planner consumes (map-mode VIO at ~a few
	// cm when synchronized). When HardwareSync is off it is inflated by
	// syncErrorFactor — the closed-loop consequence of Fig. 11.
	localizationErrorStd float64 = 0.04
	// syncErrorFactor multiplies the localization error without the
	// hardware synchronizer.
	syncErrorFactor float64 = 12
)

// SetPipelineDefault does nothing.
//
// Deprecated: see Config.Pipeline.
func SetPipelineDefault(bool) {}

// SetQuantDefault does nothing: DefaultConfig reads no process state, and
// callers set Config.Quant.
//
// Deprecated: nothing reads what it was given. It stays only because the
// frozen benchmark/ calls it; ROADMAP item 7 drops that call and this shim.
func SetQuantDefault(bool) {}

// SetSchedDefault does nothing: callers set Config.Sched.
//
// Deprecated: see SetQuantDefault.
func SetSchedDefault(bool) {}

// DefaultConfig returns the deployed configuration.
func DefaultConfig() Config {
	return Config{
		Cameras:       1,
		AmbientC:      25,
		Seed:          1,
		Vehicle:       vehicle.DefaultParams(),
		TargetSpeed:   5.6,
		ControlRate:   10,
		PhysicsRate:   100,
		RadarRate:     20,
		ReactiveRate:  50,
		FPGAOffload:   true,
		HardwareSync:  true,
		ReactivePath:  true,
		RadarTracking: true,
		EMPlanner:     false,
		RPREnabled:    true,
		KeyframeEvery: 5,
		Detector:      detect.DefaultConfig(),
	}
}
