// Package sov is the public API of the Systems-on-a-Vehicle (SoV) library —
// a reproduction of "Building the Computing System for Autonomous
// Micromobility Vehicles: Design Constraints and Architectural
// Optimizations" (MICRO 2020).
//
// The package exposes three layers:
//
//   - the analytical design-constraint models of Sec. III (latency Eq. 1,
//     energy Eq. 2, power Table I, cost Table II);
//   - the assembled on-vehicle system (sensing → perception → planning with
//     the reactive safety override) running as a deterministic
//     discrete-event simulation, producing the Fig. 10 characterization;
//   - the hardware design-space tools: the perception mapping explorer
//     (Figs. 6/8) and the sensing–computing co-design experiments
//     (Figs. 11/12).
//
// Everything underneath is implemented from scratch in this module: the
// EKF visual-inertial odometry, ELAS-style stereo, the FFT-based KCF
// tracker, the CNN inference engine, MPC and EM-style planners, the CAN
// bus, the kd-tree/ICP point-cloud stack with its cache simulator, and the
// synthetic world + sensor models that substitute for the physical vehicle
// (see DESIGN.md).
package sov

import (
	"time"

	"sov/internal/core"
	"sov/internal/models"
	"sov/internal/platform"
	"sov/internal/sensorsync"
	"sov/internal/sim"
	"sov/internal/world"
)

// Config selects the SoV build options (FPGA offload, hardware sync,
// reactive path, planner choice, ...).
type Config = core.Config

// Report is a run's latency characterization and safety outcome.
type Report = core.Report

// World is the synthetic environment the vehicle drives through.
type World = world.World

// CutInOutcome is the result of an obstacle trial.
type CutInOutcome = core.CutInOutcome

// DefaultConfig returns the deployed vehicle's configuration: localization
// offloaded to the FPGA, hardware sensor synchronization, radar tracking
// with spatial synchronization, MPC planning, and the reactive path armed.
func DefaultConfig() Config { return core.DefaultConfig() }

// System is an assembled Systems-on-a-Vehicle instance.
type System struct {
	inner *core.SoV
}

// NewSystem assembles an SoV over a world.
func NewSystem(cfg Config, w *World) *System {
	return &System{inner: core.New(cfg, w)}
}

// Run simulates the vehicle for the given (virtual) duration and returns
// the characterization report.
func (s *System) Run(d time.Duration) *Report { return s.inner.Run(d) }

// Speed returns the vehicle's current speed in m/s.
func (s *System) Speed() float64 { return s.inner.Vehicle().State().Speed }

// DistanceM returns the odometer reading in meters.
func (s *System) DistanceM() float64 { return s.inner.Vehicle().Odometer() }

// CruiseScenario builds the standard 2 km characterization corridor with
// periodic far-ahead pedestrian crossings.
func CruiseScenario(seed int64) *World { return core.CruiseScenario(seed) }

// RunSuddenObstacle executes the Eq. 1 worst case: an obstacle materializes
// directly in the lane when the vehicle is triggerDistance meters away.
// Outcomes are decided purely by distance vs. reaction latency.
func RunSuddenObstacle(cfg Config, triggerDistance float64, d time.Duration) CutInOutcome {
	return core.RunSuddenObstacle(cfg, triggerDistance, d)
}

// CampusLoop builds a rectangular campus-loop world.
func CampusLoop(side float64, seed int64) *World {
	return world.CampusLoop(side, sim.NewRNG(seed))
}

// Analytical models (Sec. III).

// LatencyModel is Eq. 1: the end-to-end stop-distance constraint.
type LatencyModel = models.LatencyModel

// CostModel is the Table II vehicle cost breakdown.
type CostModel = models.CostModel

// TCO is the total-cost-of-ownership sketch of Sec. VII.
type TCO = models.TCO

// DefaultLatencyModel returns the deployed parameters (v = 5.6 m/s,
// a = 4 m/s², Tdata ≈ 1 ms, Tmech ≈ 19 ms).
func DefaultLatencyModel() LatencyModel { return models.DefaultLatencyModel() }

// DrivingTimeHours is Eq. 2's driving time on one charge of the 6 kWh /
// 0.6 kW vehicle when the AD system draws padKW.
func DrivingTimeHours(padKW float64) float64 { return models.DrivingTimeHours(padKW) }

// RevenueLossPercent is the share of a dayHours operating day lost when the
// AD power rises from padBeforeKW to padAfterKW.
func RevenueLossPercent(padBeforeKW, padAfterKW, dayHours float64) float64 {
	return models.RevenueLossPercent(padBeforeKW, padAfterKW, dayHours)
}

// PowerBudgetKW returns Table I's AD power total, PAD = 0.175 kW.
func PowerBudgetKW() float64 { return models.PowerBudgetKW() }

// RenderPowerBudget formats the Table I power breakdown.
func RenderPowerBudget() string { return models.RenderPowerBudget() }

// CameraVehicleCost returns our camera-based vehicle's Table II rows.
func CameraVehicleCost() CostModel { return models.DefaultCameraVehicleCost() }

// LiDARVehicleCost returns the LiDAR-based comparison rows of Table II.
func LiDARVehicleCost() CostModel { return models.DefaultLiDARVehicleCost() }

// DefaultTCO returns the tourist-site operating profile.
func DefaultTCO() TCO { return models.DefaultTCO() }

// Hardware design space (Sec. V).

// MappingResult is the evaluated latency of one mapping (Fig. 8).
type MappingResult = platform.PerceptionResult

// ExploreMappings evaluates the Fig. 8 mapping strategies, best first.
func ExploreMappings() []MappingResult { return platform.ExploreMappings() }

// Sensing–computing co-design (Sec. VI).

// SyncPairing summarizes a camera–IMU synchronization experiment.
type SyncPairing = sensorsync.PairingResult

// SoftwareSyncExperiment measures application-layer pairing error
// (the Fig. 12a/b baseline).
func SoftwareSyncExperiment(horizon time.Duration, seed int64) SyncPairing {
	return sensorsync.SoftwareSyncExperiment(horizon, sim.NewRNG(seed))
}

// HardwareSyncExperiment measures the hardware synchronizer's pairing error
// (the Fig. 12c design).
func HardwareSyncExperiment(horizon time.Duration, seed int64) SyncPairing {
	return sensorsync.HardwareSyncExperiment(horizon, sim.NewRNG(seed))
}

// StereoDepthErrorAtOffset runs the Fig. 11a experiment on real rendered
// stereo pairs: the depth error of a moving object when the two cameras
// fire offset apart.
func StereoDepthErrorAtOffset(offset time.Duration) float64 {
	return sensorsync.DepthErrorAtOffset(offset, 5.0, 1.2, 25)
}
