// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for the paper-vs-measured record), plus component
// benchmarks for the real algorithm implementations. Reported custom
// metrics carry the figure's headline quantity so `go test -bench=.`
// regenerates the evaluation wholesale.
package sov

import (
	"testing"
	"time"

	"sov/internal/cachesim"
	"sov/internal/core"
	"sov/internal/detect"
	"sov/internal/experiments"
	"sov/internal/fusion"
	"sov/internal/mathx"
	"sov/internal/models"
	"sov/internal/platform"
	"sov/internal/pointcloud"
	"sov/internal/rpr"
	"sov/internal/sensors"
	"sov/internal/sensorsync"
	"sov/internal/sim"
	"sov/internal/track"
	"sov/internal/vio"
	"sov/internal/vision"
	"sov/internal/world"
)

// --- Fig. 2 / Eq. 1: end-to-end latency model -------------------------------

func BenchmarkFig2LatencyModel(b *testing.B) {
	m := models.DefaultLatencyModel()
	var d float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d = m.StoppingDistance(164 * time.Millisecond)
	}
	b.ReportMetric(d, "stop_m@164ms")
	b.ReportMetric(m.BrakingDistance(), "braking_floor_m")
}

// --- Fig. 3a: computing latency requirement vs distance ---------------------

func BenchmarkFig3aLatencyRequirement(b *testing.B) {
	m := models.DefaultLatencyModel()
	var pts []models.RequirementPoint
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts = gatherFig3a(m)
	}
	b.ReportMetric(pts[0].Budget.Seconds()*1000, "budget_ms@4.5m")
	b.ReportMetric(m.AvoidableDistance(164*time.Millisecond), "avoid_m@164ms")
	b.ReportMetric(m.AvoidableDistance(740*time.Millisecond), "avoid_m@740ms")
}

func gatherFig3a(m models.LatencyModel) []models.RequirementPoint {
	return m.RequirementCurve(4.5, 10, 12)
}

// --- Fig. 3b: reduced driving time vs PAD -----------------------------------

func BenchmarkFig3bDrivingTime(b *testing.B) {
	base := models.PowerBudgetKW()
	var cur float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur = models.ReducedDrivingTimeHours(base)
	}
	b.ReportMetric(cur, "reduced_h_current")
	b.ReportMetric(models.ReducedDrivingTimeHours(base+0.092), "reduced_h_lidar")
	b.ReportMetric(models.ReducedDrivingTimeHours(base+0.031), "reduced_h_idle_server")
	b.ReportMetric(models.ReducedDrivingTimeHours(base+0.118), "reduced_h_full_server")
}

// --- Table I / Table II ------------------------------------------------------

func BenchmarkTable1PowerBreakdown(b *testing.B) {
	var total float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total = models.PowerBudgetW()
	}
	b.ReportMetric(total, "PAD_W")
}

func BenchmarkTable2CostBreakdown(b *testing.B) {
	var ratio float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ratio = models.DefaultLiDARVehicleCost().SensorTotalUSD() /
			models.DefaultCameraVehicleCost().SensorTotalUSD()
	}
	b.ReportMetric(ratio, "lidar_vs_camera_sensor_x")
	b.ReportMetric(models.DefaultTCO().CostPerTripUSD(), "usd_per_trip")
}

// --- Fig. 4a: irregular point reuse ------------------------------------------

func BenchmarkFig4aPointReuse(b *testing.B) {
	rng := sim.NewRNG(11)
	scan := pointcloud.GenerateScan(3000, 100, rng.Fork())
	moved := scan.Transform(0.03, mathx.Vec3{X: 0.3})
	var spread float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree := pointcloud.Build(scan, nil)
		pointcloud.Localize(tree, moved, nil, 15, 2)
		min, max := 1<<30, 0
		for _, r := range tree.Reuse {
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		spread = float64(max) / float64(min+1)
	}
	b.ReportMetric(spread, "reuse_max/min")
}

// --- Fig. 4b: off-chip memory traffic ----------------------------------------

func BenchmarkFig4bMemoryTraffic(b *testing.B) {
	rng := sim.NewRNG(12)
	scan := pointcloud.GenerateScan(3000, 42, rng.Fork())
	moved := scan.Transform(0.02, mathx.Vec3{X: 0.2})
	var loc, seg float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := cachesim.New(cachesim.Config{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 8})
		tree := pointcloud.Build(scan, c)
		c.Reset()
		pointcloud.Localize(tree, moved, c, 10, 2)
		loc = c.Stats().TrafficRatio()

		c2 := cachesim.New(cachesim.Config{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 8})
		tree2 := pointcloud.Build(scan, c2)
		c2.Reset()
		pointcloud.Segment(tree2, scan, c2, 0.6, 20)
		seg = c2.Stats().TrafficRatio()
	}
	b.ReportMetric(loc, "localization_traffic_x")
	b.ReportMetric(seg, "segmentation_traffic_x")
}

// --- Fig. 6: platform latency / energy ---------------------------------------

func BenchmarkFig6aPlatformLatency(b *testing.B) {
	var tx2 time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx2 = platform.TX2CumulativePerception()
	}
	cat := platform.Catalog()
	b.ReportMetric(tx2.Seconds()*1000, "tx2_cumulative_ms")
	b.ReportMetric(cat["FPGA"].Latency[platform.TaskLocalization].Seconds()*1000, "fpga_loc_ms")
	b.ReportMetric(cat["GPU"].Latency[platform.TaskDetection].Seconds()*1000, "gpu_det_ms")
}

func BenchmarkFig6bPlatformEnergy(b *testing.B) {
	cat := platform.Catalog()
	var e float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, _ = cat["CPU"].Energy(platform.TaskDepth)
	}
	b.ReportMetric(e, "cpu_depth_J")
	eg, _ := cat["GPU"].Energy(platform.TaskDetection)
	et, _ := cat["TX2"].Energy(platform.TaskDetection)
	b.ReportMetric(et/eg, "tx2_vs_gpu_det_energy_x")
}

// --- Fig. 8: mapping strategies ----------------------------------------------

func BenchmarkFig8MappingStrategies(b *testing.B) {
	var results []platform.PerceptionResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results = platform.ExploreMappings()
	}
	best := results[0].PerceptionLatency
	worstGPU := time.Duration(0)
	for _, r := range results {
		if r.Mapping.SceneUnderstanding == "GPU" && r.Mapping.Localization == "GPU" {
			worstGPU = r.PerceptionLatency
		}
	}
	b.ReportMetric(best.Seconds()*1000, "our_perception_ms")
	b.ReportMetric(float64(worstGPU)/float64(best), "fpga_offload_speedup_x")
}

// --- Fig. 9: RPR engine -------------------------------------------------------

func BenchmarkFig9RPREngine(b *testing.B) {
	eng := rpr.NewEngine(rpr.DefaultEngineConfig())
	var r rpr.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r = eng.Transfer(rpr.BitstreamFeatureExtract.Bytes)
	}
	b.ReportMetric(r.Throughput/1e6, "engine_MBps")
	b.ReportMetric(r.Duration.Seconds()*1000, "swap_ms")
	b.ReportMetric(r.EnergyJ*1000, "swap_mJ")
	cpu := rpr.CPUDrivenTransfer(rpr.BitstreamFeatureExtract.Bytes)
	b.ReportMetric(cpu.Duration.Seconds()/r.Duration.Seconds(), "vs_cpu_x")
}

// --- Fig. 10: end-to-end characterization -------------------------------------

func BenchmarkFig10aLatencyDistribution(b *testing.B) {
	var rep *core.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		w := core.CruiseScenario(3)
		rep = core.New(cfg, w).Run(60 * time.Second)
	}
	b.ReportMetric(rep.Tcomp.Mean(), "tcomp_mean_ms")
	b.ReportMetric(rep.Tcomp.Min(), "tcomp_best_ms")
	b.ReportMetric(rep.Tcomp.Quantile(0.99), "tcomp_p99_ms")
	b.ReportMetric(100*rep.ComputeShare(), "compute_share_pct")
	b.ReportMetric(100*rep.SensingShare(), "sensing_share_pct")
	b.ReportMetric(100*rep.ProactiveFraction, "proactive_pct")
}

func BenchmarkFig10bPerceptionTasks(b *testing.B) {
	var rep *core.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		w := core.CruiseScenario(3)
		rep = core.New(cfg, w).Run(60 * time.Second)
	}
	b.ReportMetric(rep.Depth.Mean(), "depth_ms")
	b.ReportMetric(rep.Detection.Mean(), "detection_ms")
	b.ReportMetric(rep.Tracking.Mean(), "tracking_ms")
	b.ReportMetric(rep.Localization.Median(), "localization_p50_ms")
	b.ReportMetric(rep.Localization.Std(), "localization_std_ms")
}

// --- Fig. 11a: depth error vs stereo sync error --------------------------------

func BenchmarkFig11aDepthVsSync(b *testing.B) {
	var e30, e90 float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e30 = sensorsync.DepthErrorAtOffset(30*time.Millisecond, 5, 1.2, 25)
		e90 = sensorsync.DepthErrorAtOffset(90*time.Millisecond, 5, 1.2, 25)
	}
	b.ReportMetric(e30, "depth_err_m@30ms")
	b.ReportMetric(e90, "depth_err_m@90ms")
}

// --- Fig. 11b: localization vs camera-IMU sync error ---------------------------

func BenchmarkFig11bLocalizationVsSync(b *testing.B) {
	cfg := vio.DefaultConfig()
	imuCfg := sensors.DefaultIMUConfig()
	imuCfg.GyroBias = 0
	imuCfg.AccelBias = 0
	w := world.NewRing(20, sim.NewRNG(8))
	traj := vio.CircleTrajectory(20, 5.6)
	var synced, off40 vio.RunResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synced = vio.RunTrajectory(cfg, imuCfg, traj, w,
			vio.RunOptions{Duration: 40 * time.Second}, sim.NewRNG(9))
		off40 = vio.RunTrajectory(cfg, imuCfg, traj, w,
			vio.RunOptions{Duration: 40 * time.Second, CameraTimestampOffset: 40 * time.Millisecond}, sim.NewRNG(9))
	}
	b.ReportMetric(synced.Errors.Mean(), "err_m_synced")
	b.ReportMetric(off40.Errors.Mean(), "err_m@40ms")
	b.ReportMetric(off40.MaxError, "err_m_max@40ms")
}

// --- Fig. 12: synchronization architecture -------------------------------------

func BenchmarkFig12HardwareSync(b *testing.B) {
	var sw, hw sensorsync.PairingResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw = sensorsync.SoftwareSyncExperiment(10*time.Second, sim.NewRNG(13))
		hw = sensorsync.HardwareSyncExperiment(10*time.Second, sim.NewRNG(13))
	}
	b.ReportMetric(sw.MeanMs, "sw_pairing_err_ms")
	b.ReportMetric(hw.MeanMs, "hw_pairing_err_ms")
}

// --- Throughput / reactive path / planner comparison ---------------------------

func BenchmarkThroughputPipeline(b *testing.B) {
	var rep *core.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		rep = core.New(cfg, core.CruiseScenario(5)).Run(30 * time.Second)
	}
	b.ReportMetric(rep.ThroughputHz, "commands_hz")
}

func BenchmarkReactivePath(b *testing.B) {
	var out core.CutInOutcome
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = core.RunSuddenObstacle(core.DefaultConfig(), 4.5, 25*time.Second)
	}
	collided := 0.0
	if out.Collided {
		collided = 1
	}
	b.ReportMetric(collided, "collided@4.5m")
	b.ReportMetric(out.MinClearanceM, "clearance_m")
}

func BenchmarkPlannerComparisonMPC(b *testing.B) {
	m := newBenchMPC()
	in := benchPlanInput()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Plan(in)
	}
}

func BenchmarkPlannerComparisonEM(b *testing.B) {
	e := newBenchEM()
	in := benchPlanInput()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Plan(in)
	}
}

// --- Sec. VI-B: fusion / spatial sync vs KCF ------------------------------------

func BenchmarkSpatialSync(b *testing.B) {
	cfg := fusion.DefaultSpatialSyncConfig()
	var dets []detect.Object
	var tracks []track.RadarTrack
	for i := 0; i < 8; i++ {
		dets = append(dets, detect.Object{ID: i, Pos: mathx.Vec2{X: 10 + float64(i), Y: float64(i % 3)}})
		tracks = append(tracks, track.RadarTrack{ID: i, Pos: mathx.Vec2{X: 8.8 + float64(i), Y: float64(i % 3)}})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fusion.SpatialSync(cfg, dets, tracks)
	}
}

func BenchmarkKCFTrackerStep(b *testing.B) {
	intr := vision.DefaultIntrinsics()
	scene := vision.Scene{Background: 2, BgDepth: 25,
		Boxes: []vision.Box{{X: 0, Y: 0, Z: 6, W: 1.8, H: 1.8, Texture: 17}}}
	im := scene.Render(intr, 0)
	k := track.NewKCF(32)
	k.Init(im, intr.Cx, intr.Cy)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Update(im)
	}
}

// --- Full regeneration pass ------------------------------------------------------

func BenchmarkAllExperimentsReport(b *testing.B) {
	if testing.Short() {
		b.Skip("full pass")
	}
	var out string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = experiments.All(core.DefaultConfig(), 1, 30*time.Second, 2000)
	}
	b.ReportMetric(float64(len(out)), "report_bytes")
}

// --- Ablations: what each design choice buys in the end-to-end system ---------

func ablationRun(mutate func(*core.Config)) *core.Report {
	cfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return core.New(cfg, core.CruiseScenario(3)).Run(60 * time.Second)
}

func BenchmarkAblationNoFPGAOffload(b *testing.B) {
	var ours, shared *core.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ours = ablationRun(nil)
		shared = ablationRun(func(c *core.Config) { c.FPGAOffload = false })
	}
	b.ReportMetric(shared.Perception.Mean()/ours.Perception.Mean(), "perception_inflation_x")
	b.ReportMetric(shared.Tcomp.Mean()/ours.Tcomp.Mean(), "tcomp_inflation_x")
}

func BenchmarkAblationSoftwareSync(b *testing.B) {
	var hw, sw *core.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hw = ablationRun(nil)
		sw = ablationRun(func(c *core.Config) { c.HardwareSync = false })
	}
	b.ReportMetric(sw.Sensing.Mean()-hw.Sensing.Mean(), "sensing_penalty_ms")
}

func BenchmarkAblationKCFTracking(b *testing.B) {
	var radar, kcf *core.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		radar = ablationRun(nil)
		kcf = ablationRun(func(c *core.Config) { c.RadarTracking = false })
	}
	b.ReportMetric(kcf.Tracking.Mean()/radar.Tracking.Mean(), "tracking_inflation_x")
}

func BenchmarkAblationEMPlanner(b *testing.B) {
	var mpc, em *core.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mpc = ablationRun(nil)
		em = ablationRun(func(c *core.Config) { c.EMPlanner = true })
	}
	b.ReportMetric(em.Planning.Mean()/mpc.Planning.Mean(), "planning_inflation_x")
	b.ReportMetric(em.Tcomp.Mean()-mpc.Tcomp.Mean(), "tcomp_penalty_ms")
}

func BenchmarkAblationNoReactivePath(b *testing.B) {
	var with, without core.CutInOutcome
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		with = core.RunSuddenObstacle(core.DefaultConfig(), 4.5, 25*time.Second)
		cfg := core.DefaultConfig()
		cfg.ReactivePath = false
		without = core.RunSuddenObstacle(cfg, 4.5, 25*time.Second)
	}
	b.ReportMetric(with.MinClearanceM, "clearance_with_m")
	b.ReportMetric(without.MinClearanceM, "clearance_without_m")
}
