package core

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sov/internal/mathx"
	"sov/internal/obs"
	"sov/internal/sim"
	"sov/internal/vehicle"
	"sov/internal/world"
)

func cruiseReport(t *testing.T, mutate func(*Config)) *Report {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	w := CruiseScenario(3)
	return New(cfg, w).Run(120 * time.Second)
}

func TestMeanComputingLatencyNear164ms(t *testing.T) {
	rep := cruiseReport(t, nil)
	if math.Abs(rep.Tcomp.Mean()-164) > 12 {
		t.Fatalf("mean Tcomp = %.1f ms, want ~164", rep.Tcomp.Mean())
	}
	// Mean close to best-case with a long tail (Fig. 10a).
	if rep.Tcomp.Min() < 120 || rep.Tcomp.Min() > rep.Tcomp.Mean() {
		t.Fatalf("best-case = %.1f ms, want ~149 < mean", rep.Tcomp.Min())
	}
	if rep.Tcomp.Quantile(0.99) < rep.Tcomp.Mean()*1.4 {
		t.Fatalf("p99 = %.1f ms lacks the long tail", rep.Tcomp.Quantile(0.99))
	}
}

func TestComputeShare88Percent(t *testing.T) {
	rep := cruiseReport(t, nil)
	if math.Abs(rep.ComputeShare()-0.885) > 0.03 {
		t.Fatalf("compute share = %.3f, want ~0.88", rep.ComputeShare())
	}
}

func TestSensingIsHalfOfTcomp(t *testing.T) {
	// The headline counter-intuitive result: sensing ≈ 50% of the SoV
	// latency (Sec. V-C).
	rep := cruiseReport(t, nil)
	if rep.SensingShare() < 0.45 || rep.SensingShare() > 0.62 {
		t.Fatalf("sensing share = %.2f, want ~0.5", rep.SensingShare())
	}
}

func TestPlanningInsignificant(t *testing.T) {
	rep := cruiseReport(t, nil)
	if rep.Planning.Mean() > 5 {
		t.Fatalf("planning mean = %.1f ms, want ~3", rep.Planning.Mean())
	}
	if rep.Planning.Mean()/rep.Tcomp.Mean() > 0.05 {
		t.Fatal("planning should be a few percent of Tcomp")
	}
}

func TestLocalizationMedianAndStd(t *testing.T) {
	// Sec. V-C: localization median 25 ms, std 14 ms.
	rep := cruiseReport(t, nil)
	if math.Abs(rep.Localization.Median()-25) > 8 {
		t.Fatalf("localization median = %.1f ms, want ~25", rep.Localization.Median())
	}
	if rep.Localization.Std() < 7 || rep.Localization.Std() > 25 {
		t.Fatalf("localization std = %.1f ms, want ~14", rep.Localization.Std())
	}
}

func TestThroughputMeets10Hz(t *testing.T) {
	rep := cruiseReport(t, nil)
	if rep.ThroughputHz < 9.5 {
		t.Fatalf("throughput = %.1f Hz, want ~10 (pipelined)", rep.ThroughputHz)
	}
}

func TestProactiveOver90Percent(t *testing.T) {
	rep := cruiseReport(t, nil)
	if rep.ProactiveFraction < 0.9 {
		t.Fatalf("proactive fraction = %.2f, want > 0.9", rep.ProactiveFraction)
	}
}

func TestCruiseIsCollisionFree(t *testing.T) {
	rep := cruiseReport(t, nil)
	if rep.Collisions != 0 {
		t.Fatalf("collisions = %d on cruise", rep.Collisions)
	}
	if rep.DistanceM < 500 {
		t.Fatalf("distance = %.0f m, vehicle stalled", rep.DistanceM)
	}
}

func TestNoFPGAOffloadInflatesPerception(t *testing.T) {
	// Fig. 8 ablation: sharing the GPU inflates perception ~1.6×.
	ours := cruiseReport(t, nil)
	shared := cruiseReport(t, func(c *Config) { c.FPGAOffload = false })
	ratio := shared.Perception.Mean() / ours.Perception.Mean()
	if ratio < 1.3 || ratio > 1.9 {
		t.Fatalf("perception inflation = %.2fx, want ~1.56x", ratio)
	}
	// And ~20% end-to-end cost (paper: 23% reduction from offloading).
	e2e := shared.Tcomp.Mean() / ours.Tcomp.Mean()
	if e2e < 1.1 || e2e > 1.45 {
		t.Fatalf("Tcomp inflation = %.2fx, want ~1.2-1.3x", e2e)
	}
}

func TestEMPlannerInflatesPlanning(t *testing.T) {
	// Sec. V-C: the EM planner costs ~100 ms vs our ~3 ms.
	rep := cruiseReport(t, func(c *Config) { c.EMPlanner = true })
	if rep.Planning.Mean() < 70 {
		t.Fatalf("EM planning mean = %.1f ms, want ~100", rep.Planning.Mean())
	}
}

func TestSoftwareSyncInflatesSensing(t *testing.T) {
	hw := cruiseReport(t, nil)
	sw := cruiseReport(t, func(c *Config) { c.HardwareSync = false })
	if sw.Sensing.Mean() <= hw.Sensing.Mean() {
		t.Fatal("software sync should add sensing latency")
	}
}

func TestKCFFallbackInflatesTracking(t *testing.T) {
	radar := cruiseReport(t, nil)
	kcf := cruiseReport(t, func(c *Config) { c.RadarTracking = false })
	ratio := kcf.Tracking.Mean() / radar.Tracking.Mean()
	if ratio < 8 {
		t.Fatalf("KCF/spatial-sync tracking ratio = %.1fx, want >> 1 (paper ~100x on CPU)", ratio)
	}
}

func TestSuddenObstacleFarAheadProactivelyAvoided(t *testing.T) {
	// An obstacle appearing 20 m ahead is well outside the 164 ms
	// avoidance envelope: the proactive path should handle it.
	out := RunSuddenObstacle(DefaultConfig(), 20, 40*time.Second)
	if out.Collided {
		t.Fatalf("collision at 20 m trigger: %+v", out)
	}
}

func TestSuddenObstacleCloseNeedsReactivePath(t *testing.T) {
	// At ~4.5 m the proactive path (≥5 m envelope at mean latency)
	// cannot respond in time; the reactive path must fire and stop the
	// vehicle (paper: reactive avoids objects ≥ ~4.1 m).
	cfg := DefaultConfig()
	out := RunSuddenObstacle(cfg, 4.5, 30*time.Second)
	if !out.Reactive {
		t.Fatalf("reactive path did not engage: %+v", out)
	}
	if out.Collided {
		t.Fatalf("collision despite reactive path: %+v", out)
	}
}

func TestSuddenObstacleCloseWithoutReactiveCollides(t *testing.T) {
	// Ablation: disarming the reactive path at a close appearance
	// distance removes the last line of defense.
	cfg := DefaultConfig()
	cfg.ReactivePath = false
	out := RunSuddenObstacle(cfg, 4.5, 30*time.Second)
	if !out.Collided {
		t.Fatalf("no collision without the reactive path at 4.5 m: %+v", out)
	}
	withReactive := RunSuddenObstacle(DefaultConfig(), 4.5, 30*time.Second)
	if withReactive.Collided {
		t.Fatalf("reactive path failed to prevent the same collision: %+v", withReactive)
	}
}

func TestSuddenObstacleInsideBrakingFloorUnavoidable(t *testing.T) {
	// 2.5 m is inside the ~3.9 m braking floor: physics forbids avoidance
	// (Fig. 3a's theoretical lower bound).
	out := RunSuddenObstacle(DefaultConfig(), 2.5, 30*time.Second)
	if !out.Collided {
		t.Fatalf("impossible avoidance succeeded: %+v", out)
	}
}

func TestCutInPedestrianHandled(t *testing.T) {
	// The crossing-pedestrian scenario (less adversarial than the sudden
	// obstacle: the pedestrian may clear the path on its own) must never
	// collide at a generous trigger distance.
	cfg := DefaultConfig()
	if rep := New(cfg, cutInScenario(cfg.TargetSpeed, 15)).Run(30 * time.Second); rep.Collisions > 0 {
		t.Fatalf("collision at 15 m pedestrian cut-in: min clearance %.2f m", rep.MinClearance)
	}
}

// cutInScenario places a pedestrian that steps into the lane when the
// vehicle, starting at x=0 at speed, is exactly triggerDistance meters
// away: the obstacle-avoidance stress test of Fig. 3a.
func cutInScenario(speed, triggerDistance float64) *world.World {
	w := world.NewCorridor(400, sim.NewRNG(7))
	const pedX = 120.0 // starts just off-lane
	triggerTime := time.Duration((pedX - triggerDistance) / speed * float64(time.Second))
	w.AddCutInPedestrian(pedX, triggerTime, 6.0) // fast step-in: ~0.5 s to centerline
	return w
}

func TestReportRender(t *testing.T) {
	rep := cruiseReport(t, nil)
	out := rep.Render()
	for _, want := range []string{"sensing", "perception", "planning", "throughput", "safety"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := cruiseReport(t, nil)
	b := cruiseReport(t, nil)
	if a.Tcomp.Mean() != b.Tcomp.Mean() || a.Collisions != b.Collisions {
		t.Fatal("same seed produced different runs")
	}
}

func TestEnergyAccounting(t *testing.T) {
	rep := cruiseReport(t, nil)
	// 175 W for 120 s = 5.83 Wh.
	if math.Abs(rep.ADEnergyWh-175.0*120/3600) > 0.01 {
		t.Fatalf("AD energy = %v Wh", rep.ADEnergyWh)
	}
	if rep.BatteryShare <= 0 || rep.BatteryShare > 0.01 {
		t.Fatalf("battery share = %v", rep.BatteryShare)
	}
}

func TestLaneKeepingTightWhenSynchronized(t *testing.T) {
	rep := cruiseReport(t, nil)
	if rep.LateralRMSM > 0.4 {
		t.Fatalf("lane-keeping RMS = %.3f m, want tight tracking", rep.LateralRMSM)
	}
}

func TestSoftwareSyncDegradesLaneKeeping(t *testing.T) {
	// The closed-loop consequence of the Fig. 11 localization study:
	// poorer pose estimates make the lane-keeping loop visibly sloppier.
	hw := cruiseReport(t, nil)
	sw := cruiseReport(t, func(c *Config) { c.HardwareSync = false })
	if sw.LateralRMSM < 1.5*hw.LateralRMSM {
		t.Fatalf("software sync should degrade lane keeping: hw %.3f vs sw %.3f m",
			hw.LateralRMSM, sw.LateralRMSM)
	}
}

func TestShuttleVariantRuns(t *testing.T) {
	// The 8-seater shuttle (heavier, softer brake, slower actuators)
	// drives the same stack; its braking floor shifts the safety
	// envelopes per Eq. 1.
	cfg := DefaultConfig()
	cfg.Vehicle = vehicle.ShuttleParams()
	rep := New(cfg, CruiseScenario(3)).Run(60 * time.Second)
	if rep.Collisions != 0 {
		t.Fatalf("shuttle cruise collided: %d", rep.Collisions)
	}
	if rep.DistanceM < 250 {
		t.Fatalf("shuttle stalled: %.0f m", rep.DistanceM)
	}
	// An appearance distance the pod survives is inside the shuttle's
	// envelope: floor = 5.6²/(2·3.2) = 4.9 m.
	out := RunSuddenObstacle(cfg, 4.5, 30*time.Second)
	if !out.Collided {
		t.Fatalf("4.5 m is inside the shuttle's 4.9 m braking floor: %+v", out)
	}
}

func TestSceneComplexitySlowsLocalization(t *testing.T) {
	// Sec. V-C: "In dynamic scenes ... new features can be extracted in
	// every frame, which slows down the localization algorithm."
	quiet := New(DefaultConfig(), CruiseScenario(99)) // crossings far apart
	quietRep := quiet.Run(60 * time.Second)

	cfg := DefaultConfig()
	busy := world.NewCorridor(2000, sim.NewRNG(3))
	// A dense stream of crossers keeps the scene dynamic the whole run.
	for x := 20.0; x < 400; x += 12 {
		busy.AddCutInPedestrian(x, 0, 1.0)
	}
	busyRep := New(cfg, busy).Run(60 * time.Second)
	if busyRep.Localization.Mean() <= quietRep.Localization.Mean() {
		t.Fatalf("busy scene localization (%.1f ms) should exceed quiet (%.1f ms)",
			busyRep.Localization.Mean(), quietRep.Localization.Mean())
	}
}

// IntersectionScenario builds an unsignalized crossing: a vehicle-class
// obstacle crosses the corridor perpendicular to travel, timed to conflict
// with the ego vehicle unless it yields. crossSpeed sets how fast the
// crosser moves (m/s).
func IntersectionScenario(egoSpeed, crossSpeed float64) *world.World {
	rng := sim.NewRNG(17)
	w := world.NewCorridor(400, rng)
	const conflictX = 110.0
	// The crosser starts 30 m to the side and is timed so both reach the
	// conflict point together if neither yields.
	egoETA := conflictX / egoSpeed
	startOffset := 30.0
	crosserStart := time.Duration((egoETA - startOffset/crossSpeed) * float64(time.Second))
	if crosserStart < 0 {
		crosserStart = 0
	}
	w.Obstacles = append(w.Obstacles, &world.Obstacle{
		ID: len(w.Obstacles) + 1, Kind: world.KindVehicle, Radius: 1.0,
		Traj: world.LinearTrajectory(
			mathx.Vec2{X: conflictX, Y: -startOffset},
			mathx.Vec2{Y: crossSpeed}, crosserStart),
	})
	return w
}

func TestIntersectionCrossingVehicleYielded(t *testing.T) {
	// An unsignalized crossing timed for conflict: the SoV must yield
	// (slow down) or otherwise avoid the crossing vehicle.
	cfg := DefaultConfig()
	w := IntersectionScenario(cfg.TargetSpeed, 3.0)
	s := New(cfg, w)
	minSpeed := cfg.TargetSpeed
	s.OnPhysicsStep = func(_ time.Duration, st vehicle.State) bool {
		if st.Speed < minSpeed {
			minSpeed = st.Speed
		}
		return false
	}
	rep := s.Run(40 * time.Second)
	if rep.Collisions != 0 {
		t.Fatalf("intersection collision: clearance %.2f", rep.MinClearance)
	}
	if minSpeed > cfg.TargetSpeed-1.0 {
		t.Fatalf("vehicle never yielded: min speed %.2f", minSpeed)
	}
}

func TestBatteryDrainsDuringRun(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg, CruiseScenario(3))
	s.Run(120 * time.Second)
	b := s.Battery()
	// 0.775 kW for 120 s ≈ 25.8 Wh of the 6 kWh pack.
	wantSoC := 1 - 0.775*120.0/3600/6
	if math.Abs(b.SoC-wantSoC) > 0.001 {
		t.Fatalf("SoC = %v, want ~%v", b.SoC, wantSoC)
	}
	if b.SoC <= 0 {
		t.Fatal("pack cannot be empty after 2 minutes")
	}
}

// TestIncrementalAdvanceMatchesRun pins the fleet- and benchmark-facing
// decomposition: Start + AdvanceTo every 100 ms + Finish must produce the
// same report and the same metrics exposition as a one-shot Run, byte for
// byte — the steps only slice the event loop, they never reorder or perturb
// it — and a second Finish publishes no second copy of the run's counts.
func TestIncrementalAdvanceMatchesRun(t *testing.T) {
	const horizon = 30 * time.Second
	whole := New(schedUnderPressure(), CruiseScenario(3))
	wreg := obs.NewRegistry()
	whole.AttachMetrics(wreg)
	oneShot := whole.Run(horizon)
	want, _ := exposition(t, wreg)

	s := New(schedUnderPressure(), CruiseScenario(3))
	reg := obs.NewRegistry()
	s.AttachMetrics(reg)
	s.Start()
	for at := 100 * time.Millisecond; at <= horizon; at += 100 * time.Millisecond {
		s.AdvanceTo(at)
		if s.engine.Now() != at {
			t.Fatalf("Now() = %v after AdvanceTo(%v)", s.engine.Now(), at)
		}
	}
	for _, finish := range []string{"Finish", "second Finish"} {
		stepped := s.Finish(horizon)
		if got, want := stepped.Render(), oneShot.Render(); got != want {
			t.Fatalf("after %s, the stepped report differs from one-shot Run:\n--- stepped ---\n%s\n--- one-shot ---\n%s", finish, got, want)
		}
		if got, _ := exposition(t, reg); got != want {
			t.Fatalf("after %s, the stepped exposition differs from one-shot Run:\n--- stepped ---\n%s\n--- one-shot ---\n%s", finish, got, want)
		}
	}
}

// TestLeanReportMatchesFullMeans pins the lean (Welford) report against
// the sample-retaining one: identical cycle counts and matching latency
// means, with rendering and the derived shares staying finite.
func TestLeanReportMatchesFullMeans(t *testing.T) {
	full := cruiseReport(t, nil)
	lean := cruiseReport(t, func(c *Config) { c.LeanReport = true })
	if lean.Cycles != full.Cycles {
		t.Fatalf("lean cycles %d vs full %d", lean.Cycles, full.Cycles)
	}
	if math.Abs(lean.MeanTcompMS()-full.Tcomp.Mean()) > 1e-6 {
		t.Fatalf("lean Tcomp mean %.4f vs full %.4f", lean.MeanTcompMS(), full.Tcomp.Mean())
	}
	if math.Abs(lean.MeanE2EMS()-full.EndToEnd.Mean()) > 1e-6 {
		t.Fatalf("lean e2e mean %.4f vs full %.4f", lean.MeanE2EMS(), full.EndToEnd.Mean())
	}
	if math.Abs(lean.ComputeShare()-full.ComputeShare()) > 1e-6 {
		t.Fatal("lean compute share diverged")
	}
	out := lean.Render()
	if !strings.Contains(out, "lean report") {
		t.Fatalf("lean render missing marker:\n%s", out)
	}
}

// TestTwoVehiclesShareOneWorld drives two SoVs over one *world.World from
// two goroutines (what a fleet region's shard workers do). The world is
// read-only and each vehicle samples it into its own obstacle frame, so
// under -race there is nothing to report, and each vehicle's report is the
// one it produces with the world to itself.
func TestTwoVehiclesShareOneWorld(t *testing.T) {
	const horizon = 30 * time.Second
	cfgs := [2]Config{DefaultConfig(), DefaultConfig()}
	cfgs[1].Seed, cfgs[1].StartOffsetM = 9, 400
	var solo [2]string
	for i, cfg := range cfgs {
		solo[i] = New(cfg, DynamicTrafficScenario(3)).Run(horizon).Render()
	}

	w := DynamicTrafficScenario(3)
	var shared [2]string
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i] = New(cfg, w).Run(horizon).Render()
		}()
	}
	wg.Wait()
	for i := range shared {
		if shared[i] != solo[i] {
			t.Errorf("vehicle %d on the shared world:\n%s\nalone:\n%s", i, shared[i], solo[i])
		}
	}
}
