// Package experiments regenerates every table and figure of the paper's
// evaluation as text reports. Each section runs the underlying systems (not
// canned numbers, except where the paper's own measured operating points
// are the input — see DESIGN.md) and prints the same rows or series the
// paper reports. Sections is the one way in: cmd/sovbench prints its rows,
// and the root BenchmarkExperiments times them, at the same parameters.
// The sections that run the SoV take the base core.Config those runs start
// from; nothing reads process-wide defaults.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sov/internal/cachesim"
	"sov/internal/canbus"
	"sov/internal/cloud"
	"sov/internal/core"
	"sov/internal/mathx"
	"sov/internal/models"
	"sov/internal/platform"
	"sov/internal/pointcloud"
	"sov/internal/rpr"
	"sov/internal/sensors"
	"sov/internal/sensorsync"
	"sov/internal/sim"
	"sov/internal/vehicle"
	"sov/internal/vio"
	"sov/internal/world"
)

// Section is one report sovbench can print: a paper figure or table, a
// study, or an export. Every section takes the same arguments — the base
// config the SoV runs start from, the seed and length of the Fig. 10
// cruise, the points per synthetic LiDAR scan — and ignores those it does
// not use.
type Section struct {
	Name string
	Run  func(base core.Config, seed int64, d time.Duration, points int) string
	Solo bool // left out of the full pass; only sovbench -only prints it
}

// Sections is every section, in the order the full pass prints them.
var Sections = []Section{
	{Name: "fig2", Run: fig2LatencyChain},
	{Name: "fig3a", Run: fig3aRequirement},
	{Name: "fig3b", Run: fig3bDrivingTime},
	{Name: "table1", Run: table1Power},
	{Name: "table2", Run: table2Cost},
	{Name: "table3", Run: table3Algorithms},
	{Name: "fig4a", Run: fig4aReuse},
	{Name: "fig4b", Run: fig4bTraffic},
	{Name: "fig6", Run: fig6Platforms},
	{Name: "fig8", Run: fig8Mappings},
	{Name: "fig9", Run: fig9RPR},
	{Name: "fig10", Run: fig10Characterization},
	{Name: "fig11a", Run: fig11aDepthSync},
	{Name: "fig11b", Run: fig11bLocalizationSync},
	{Name: "fig12", Run: fig12SyncArchitecture},
	{Name: "reactive", Run: reactivePathStudy},
	{Name: "fusion", Run: fusionStudy},
	{Name: "extensions", Run: extensions},
	{Name: "sched", Run: schedDynamic, Solo: true},
	{Name: "sched-json", Run: schedBenchJSON, Solo: true},
	{Name: "csv", Run: seriesCSV, Solo: true},
}

// Lookup returns the section called name, ignoring case.
func Lookup(name string) (Section, bool) {
	for _, s := range Sections {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return Section{}, false
}

// All runs every section of the full pass and concatenates the reports,
// each followed by a blank line.
func All(base core.Config, seed int64, d time.Duration, points int) string {
	var b strings.Builder
	for _, s := range Sections {
		if !s.Solo {
			b.WriteString(s.Run(base, seed, d, points))
			b.WriteString("\n")
		}
	}
	return b.String()
}

// fig2LatencyChain demonstrates the Eq. 1 latency chain at the deployed
// parameters (Fig. 2).
func fig2LatencyChain(core.Config, int64, time.Duration, int) string {
	m := models.DefaultLatencyModel()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — end-to-end latency model (v=%.1f m/s, a=%.1f m/s2)\n", m.Speed, m.BrakeDecel)
	fmt.Fprintf(&b, "  Tdata=%v  Tmech=%v  Tstop=%v  braking distance=%.2f m\n",
		models.DataLatency, m.MechLatency, m.StopTime(), m.BrakingDistance())
	for _, tc := range []time.Duration{30 * time.Millisecond, 149 * time.Millisecond, 164 * time.Millisecond, 740 * time.Millisecond} {
		fmt.Fprintf(&b, "  Tcomp=%-6v -> stopping distance %.2f m (compute share %.0f%%)\n",
			tc, m.StoppingDistance(tc), 100*m.ComputeShare(tc))
	}
	return b.String()
}

// fig3aRequirement sweeps the computing-latency budget against object
// distance (Fig. 3a).
func fig3aRequirement(core.Config, int64, time.Duration, int) string {
	m := models.DefaultLatencyModel()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3a — computing latency requirement vs object distance\n")
	fmt.Fprintf(&b, "  %-12s %s\n", "distance(m)", "budget(ms)")
	for _, p := range m.RequirementCurve(4, 10, 13) {
		fmt.Fprintf(&b, "  %-12.1f %.0f\n", p.Distance, p.Budget.Seconds()*1000)
	}
	fmt.Fprintf(&b, "  markers: 164 ms mean -> avoid >= %.2f m; 740 ms worst -> avoid >= %.2f m; reactive 30 ms -> %.2f m; floor %.2f m\n",
		m.AvoidableDistance(164*time.Millisecond), m.AvoidableDistance(740*time.Millisecond),
		m.AvoidableDistance(30*time.Millisecond), m.BrakingDistance())
	return b.String()
}

// fig3bDrivingTime sweeps reduced driving time against PAD with the
// paper's four markers (Fig. 3b).
func fig3bDrivingTime(core.Config, int64, time.Duration, int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3b — reduced driving time vs PAD (E=%.0f kWh, Pv=%.1f kW)\n", models.CapacityKWh, models.VehiclePowerKW)
	fmt.Fprintf(&b, "  %-10s %s\n", "PAD(kW)", "reduced(h)")
	for pad := 0.15; pad <= 0.351; pad += 0.02 {
		fmt.Fprintf(&b, "  %-10.2f %.2f\n", pad, models.ReducedDrivingTimeHours(pad))
	}
	base := models.PowerBudgetKW()
	lidar := 0.0
	for _, c := range models.WaymoLiDARSuite() {
		lidar += c.TotalW()
	}
	fmt.Fprintf(&b, "  markers: current (%.3f kW) %.2f h | +LiDAR %.2f h | +1 server idle %.2f h | +1 server full %.2f h\n",
		base,
		models.ReducedDrivingTimeHours(base),
		models.ReducedDrivingTimeHours(base+lidar/1000),
		models.ReducedDrivingTimeHours(base+models.ServerIdlePowerW/1000),
		models.ReducedDrivingTimeHours(base+models.ServerDynamicPowerW/1000))
	return b.String()
}

// table1Power renders the Table I power breakdown.
func table1Power(core.Config, int64, time.Duration, int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table I — power breakdown\n%s", models.RenderPowerBudget())
	fmt.Fprintf(&sb, "LiDAR comparison (not used): long-range %.0f W, short-range %.0f W\n",
		models.LongRangeLiDARPowerW, models.ShortRangeLiDARPowerW)
	return sb.String()
}

// table2Cost renders the Table II cost comparison.
func table2Cost(core.Config, int64, time.Duration, int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II — our (camera-based) vehicle\n%s\n", models.DefaultCameraVehicleCost().Render())
	fmt.Fprintf(&sb, "LiDAR-based vehicle (e.g. Waymo-class)\n%s", models.DefaultLiDARVehicleCost().Render())
	fmt.Fprintf(&sb, "TCO sketch: $%.0f/year -> $%.2f per trip\n", models.AnnualUSD(), models.CostPerTripUSD())
	return sb.String()
}

// table3Algorithms inventories the algorithm suite (Table III) with the
// packages that implement each and the benchmark that measures it.
func table3Algorithms(core.Config, int64, time.Duration, int) string {
	rows := [][3]string{
		{"Depth estimation", "ELAS-style support-point stereo (internal/vision)", "BenchmarkSupportPointStereo160x120"},
		{"Object detection", "CNN grid head + NMS (internal/nn, internal/detect)", "BenchmarkRunCNNFullPath"},
		{"Object tracking", "KCF w/ FFT (internal/track) + radar spatial sync (internal/fusion)", "BenchmarkKCFTrackerStep / BenchmarkSpatialSync"},
		{"Localization", "EKF VIO, odometry + map modes (internal/vio)", "BenchmarkPropagateIMU / BenchmarkUpdateCamera"},
		{"Planning", "MPC (internal/planning) vs EM-style DP+QP", "BenchmarkPlannerComparisonMPC / ...EM"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — algorithms\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %-58s %s\n", r[0], r[1], r[2])
	}
	return b.String()
}

// fig4aReuse runs LiDAR localization on two scenes and reports the
// irregular point-reuse histograms (Fig. 4a).
func fig4aReuse(_ core.Config, _ int64, _ time.Duration, points int) string {
	rng := sim.NewRNG(11)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4a — point reuse frequency during LiDAR localization (%d pts/scan)\n", points)
	for frame, variant := range []int64{100, 200} {
		scan := pointcloud.GenerateScan(points, variant, rng.Fork())
		moved := scan.Transform(0.03, mathx.Vec3{X: 0.3})
		tree := pointcloud.Build(scan, nil)
		pointcloud.Localize(tree, moved, nil, 15, 2)
		h := tree.ReuseHistogram(200)
		keys := make([]int, 0, len(h))
		for k := range h {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		fmt.Fprintf(&b, "  frame %d: reuse-bin -> points: ", frame)
		for _, k := range keys {
			fmt.Fprintf(&b, "%d:%d ", k, h[k])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "  (reuse varies widely across points and between the two scenes)\n")
	return b.String()
}

// fig4bCache is the scaled cache of the Fig. 4b measurements.
var fig4bCache = cachesim.Config{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 8}

// fig4bTraffic measures off-chip traffic of the four point-cloud kernels
// normalized to the optimal (compulsory) traffic (Fig. 4b).
func fig4bTraffic(_ core.Config, _ int64, _ time.Duration, points int) string {
	rng := sim.NewRNG(12)
	scan := pointcloud.GenerateScan(points, 42, rng.Fork())
	moved := scan.Transform(0.02, mathx.Vec3{X: 0.2})

	run := func(name string, f func(c *cachesim.Cache)) string {
		c := cachesim.New(fig4bCache)
		f(c)
		s := c.Stats()
		return fmt.Sprintf("  %-16s traffic/optimal = %6.1fx (miss rate %.2f)\n", name, s.TrafficRatio(), s.MissRate())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4b — normalized off-chip memory traffic (%d-pt scans, scaled cache)\n", points)
	b.WriteString(run("localization", func(c *cachesim.Cache) {
		tree := pointcloud.Build(scan, c)
		c.Reset()
		pointcloud.Localize(tree, moved, c, 10, 2)
	}))
	b.WriteString(run("segmentation", func(c *cachesim.Cache) {
		tree := pointcloud.Build(scan, c)
		c.Reset()
		pointcloud.Segment(tree, scan, c, 0.6, 20)
	}))
	b.WriteString(run("recognition", func(c *cachesim.Cache) {
		tree := pointcloud.Build(scan, nil)
		clusters := pointcloud.Segment(tree, scan, nil, 0.6, 20)
		lib := []pointcloud.Descriptor{{}, {}}
		c.Reset()
		pointcloud.Recognize(scan, tree, c, clusters, lib)
	}))
	b.WriteString(run("reconstruction", func(c *cachesim.Cache) {
		tree := pointcloud.Build(scan, c)
		c.Reset()
		pointcloud.Reconstruct(tree, scan, c, 8)
	}))
	// Preprocessing kernels, for contrast: voxel filtering streams the
	// cloud once (hash grid), RANSAC samples it sparsely.
	b.WriteString(run("voxel-filter", func(c *cachesim.Cache) {
		pointcloud.VoxelDownsample(scan, c, 0.3)
	}))
	b.WriteString(run("ransac-ground", func(c *cachesim.Cache) {
		pointcloud.RansacGround(scan, c, 40, 0.08, sim.NewRNG(33))
	}))
	// Reference: the regular stencil access pattern of vision kernels
	// (Sec. III-D's contrast). A 7x7 stencil sweep over an image the same
	// size as the cloud, and never shorter than the stencil, streams rows
	// with near-perfect reuse.
	b.WriteString(run("vision-stencil", func(c *cachesim.Cache) {
		stencilSweep(c, 200, max(points/200*3, 2*3+1), 3)
	}))
	return b.String()
}

// stencilSweep drives the cache with a (2*half+1)² convolution access
// pattern over a w×h row-major float32 image — the "regular stencil"
// memory behaviour of vision kernels.
func stencilSweep(c *cachesim.Cache, w, h, half int) {
	const px = 4
	for y := half; y < h-half; y++ {
		for x := half; x < w-half; x++ {
			for dy := -half; dy <= half; dy++ {
				for dx := -half; dx <= half; dx++ {
					c.Access(int64(((y+dy)*w+(x+dx))*px), px)
				}
			}
		}
	}
}

// fig6Platforms reports per-task latency and energy on the four platforms
// (Fig. 6a/6b).
func fig6Platforms(core.Config, int64, time.Duration, int) string {
	cat := platform.Catalog()
	names := []string{"CPU", "GPU", "TX2", "FPGA"}
	tasks := []platform.Task{platform.TaskDepth, platform.TaskDetection, platform.TaskLocalization}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6a — latency (ms)\n  %-18s", "task")
	for _, n := range names {
		fmt.Fprintf(&b, "%10s", n)
	}
	fmt.Fprintln(&b)
	for _, t := range tasks {
		fmt.Fprintf(&b, "  %-18s", t)
		for _, n := range names {
			fmt.Fprintf(&b, "%10.1f", cat[n].Latency[t].Seconds()*1000)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "Fig. 6b — energy (J)\n  %-18s", "task")
	for _, n := range names {
		fmt.Fprintf(&b, "%10s", n)
	}
	fmt.Fprintln(&b)
	for _, t := range tasks {
		fmt.Fprintf(&b, "  %-18s", t)
		for _, n := range names {
			e, _ := cat[n].Energy(t)
			fmt.Fprintf(&b, "%10.2f", e)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "  TX2 cumulative perception: %.1f ms\n", platform.TX2CumulativePerception().Seconds()*1000)
	return b.String()
}

// fig8Mappings reports the perception mapping exploration (Fig. 8).
func fig8Mappings(core.Config, int64, time.Duration, int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — perception mapping strategies\n")
	fmt.Fprintf(&b, "  %-24s %-14s %-14s %s\n", "mapping (SU/Loc)", "scene(ms)", "loc(ms)", "perception(ms)")
	for _, r := range platform.ExploreMappings() {
		fmt.Fprintf(&b, "  %-24s %-14.1f %-14.1f %.1f\n",
			r.Mapping.SceneUnderstanding+"/"+r.Mapping.Localization,
			r.SceneUnderstandingLatency.Seconds()*1000,
			r.LocalizationLatency.Seconds()*1000,
			r.PerceptionLatency.Seconds()*1000)
	}
	cat := platform.Catalog()
	shared, _ := platform.EvaluateMapping(platform.Mapping{SceneUnderstanding: "GPU", Localization: "GPU"}, cat)
	ours, _ := platform.EvaluateMapping(platform.OurDesign(), cat)
	fmt.Fprintf(&b, "  FPGA offload speedup: %.2fx perception\n",
		float64(shared.PerceptionLatency)/float64(ours.PerceptionLatency))
	return b.String()
}

// fig9RPR compares the reconfiguration engine with the CPU-driven path
// (Fig. 9 / Sec. V-B3).
func fig9RPR(core.Config, int64, time.Duration, int) string {
	eng := new(rpr.Engine)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — runtime partial reconfiguration\n")
	for _, bs := range []rpr.Bitstream{rpr.BitstreamFeatureExtract, rpr.BitstreamFeatureTrack} {
		re := eng.Transfer(bs.Bytes)
		rc := rpr.CPUDrivenTransfer(bs.Bytes)
		fmt.Fprintf(&b, "  %-16s %7d B: engine %8v (%6.1f MB/s, %.2f mJ) | CPU-driven %10v (%.0f KB/s)\n",
			bs.Name, bs.Bytes, re.Duration.Round(time.Microsecond), re.Throughput/1e6, re.EnergyJ*1000,
			rc.Duration.Round(time.Millisecond), rc.Throughput/1024)
	}
	res := rpr.EngineResources()
	fmt.Fprintf(&b, "  engine footprint: %d LUTs, %d FFs; FIFO %d B\n",
		res.LUTs, res.FFs, rpr.FIFOBytes)
	return b.String()
}

// fig10Characterization runs the SoV cruise on base for d with the given
// seed and renders the latency distribution (Fig. 10a/b).
func fig10Characterization(base core.Config, seed int64, d time.Duration, _ int) string {
	cfg := base
	cfg.Seed = seed
	rep := core.New(cfg, core.CruiseScenario(seed)).Run(d)
	return "Fig. 10 — on-vehicle latency characterization\n" + rep.Render()
}

// fig11aDepthSync sweeps stereo depth error against inter-camera sync
// error, both analytically and through the rendered stereo stack
// (Fig. 11a).
func fig11aDepthSync(core.Config, int64, time.Duration, int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11a — stereo depth error vs camera sync error (object at 5 m moving 1.2 m/s)\n")
	fmt.Fprintf(&b, "  %-12s %-14s %s\n", "offset(ms)", "analytic(m)", "rendered(m)")
	for _, ms := range []int{0, 10, 30, 50, 70, 90, 110, 130, 150} {
		off := time.Duration(ms) * time.Millisecond
		a := sensorsync.AnalyticDepthError(off, 5, 1.2, 25)
		r := sensorsync.DepthErrorAtOffset(off, 5, 1.2, 25)
		fmt.Fprintf(&b, "  %-12d %-14.2f %.2f\n", ms, a, r)
	}
	return b.String()
}

// fig11bLocalizationSync runs the VIO loop with 0/20/40 ms camera–IMU
// offsets (Fig. 11b).
func fig11bLocalizationSync(core.Config, int64, time.Duration, int) string {
	imuCfg := sensors.DefaultIMUConfig()
	imuCfg.GyroBias = 0
	imuCfg.AccelBias = 0
	w := world.NewRing(20, sim.NewRNG(8))
	traj := vio.CircleTrajectory(20, 5.6)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11b — localization error vs camera–IMU sync error (20 m loop at 5.6 m/s, 4-seed mean)\n")
	fmt.Fprintf(&b, "  %-12s %-12s %-12s %s\n", "offset(ms)", "mean(m)", "p90(m)", "max(m)")
	for _, ms := range []int{0, 20, 40} {
		var mean, p90, max float64
		const seeds = 4
		for s := int64(0); s < seeds; s++ {
			res := vio.RunTrajectory(imuCfg, traj, w, vio.RunOptions{
				Duration:              60 * time.Second,
				CameraTimestampOffset: time.Duration(ms) * time.Millisecond,
			}, sim.NewRNG(9+s))
			mean += res.Errors.Mean() / seeds
			p90 += res.Errors.Quantile(0.9) / seeds
			max += res.MaxError / seeds
		}
		fmt.Fprintf(&b, "  %-12d %-12.2f %-12.2f %.2f\n", ms, mean, p90, max)
	}
	return b.String()
}

// fig12SyncArchitecture compares software-only and hardware-collaborative
// synchronization (Fig. 12 / Sec. VI-A3).
func fig12SyncArchitecture(core.Config, int64, time.Duration, int) string {
	sw := sensorsync.SoftwareSyncExperiment(20*time.Second, sim.NewRNG(13))
	hw := sensorsync.HardwareSyncExperiment(20*time.Second, sim.NewRNG(13))
	res := sensorsync.HardwareSynchronizerResources()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12 — camera–IMU pairing error\n")
	fmt.Fprintf(&b, "  software-only : mean %6.2f ms  p99 %6.2f ms  max %6.2f ms (%d frames)\n",
		sw.MeanMs, sw.P99Ms, sw.MaxMs, sw.Frames)
	fmt.Fprintf(&b, "  hardware sync : mean %6.2f ms  p99 %6.2f ms  max %6.2f ms (%d frames)\n",
		hw.MeanMs, hw.P99Ms, hw.MaxMs, hw.Frames)
	fmt.Fprintf(&b, "  synchronizer: %d LUTs, %d registers, %.0f mW, adds %v\n",
		res.LUTs, res.Registers, res.PowerW*1000, res.AddedLatency)
	return b.String()
}

// reactivePathStudy sweeps sudden-obstacle appearance distances and reports
// outcomes on base (Sec. IV: reactive path avoids ~4.1-4.8 m where the
// proactive path needs ~5+ m; inside the ~3.9 m braking floor nothing helps).
func reactivePathStudy(base core.Config, _ int64, _ time.Duration, _ int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reactive path — sudden-obstacle distance sweep (v=5.6 m/s, floor 3.92 m)\n")
	fmt.Fprintf(&b, "  %-12s %-10s %-10s %-12s %s\n", "appears(m)", "reactive", "collided", "clearance(m)", "stopped")
	for _, d := range []float64{3.0, 4.2, 4.5, 5.5, 7.0, 10.0, 20.0} {
		out := core.RunSuddenObstacle(base, d, 30*time.Second)
		fmt.Fprintf(&b, "  %-12.1f %-10v %-10v %-12.2f %v\n",
			d, out.Reactive, out.Collided, out.MinClearanceM, out.Stopped)
	}
	return b.String()
}

// fusionStudy reports the Sec. VI-B numbers: GPS-VIO drift correction and
// radar-vs-KCF tracking cost, via the core simulation's tracking latencies.
func fusionStudy(core.Config, int64, time.Duration, int) string {
	imuCfg := sensors.DefaultIMUConfig()
	imuCfg.GyroBias = 0
	imuCfg.AccelBias = 0
	w := world.NewCorridor(1200, sim.NewRNG(5))
	gps := sensors.NewGPS(sim.NewRNG(6))
	speed := 5.6
	traj := func(tt time.Duration) (world.Pose, mathx.Vec3) {
		return world.Pose{Pos: mathx.Vec2{X: speed * tt.Seconds()}}, mathx.Vec3{}
	}
	bare := vio.RunTrajectory(imuCfg, traj, w, vio.RunOptions{Duration: 120 * time.Second}, sim.NewRNG(7))
	fused := vio.RunTrajectory(imuCfg, traj, w, vio.RunOptions{Duration: 120 * time.Second, GPS: gps}, sim.NewRNG(7))
	var b strings.Builder
	fmt.Fprintf(&b, "Sec. VI-B — augmenting computing with sensors\n")
	fmt.Fprintf(&b, "  VIO only   : mean %.2f m  p90 %.2f m  final %.2f m over %0.f m\n",
		bare.Errors.Mean(), bare.Errors.Quantile(0.9), bare.FinalError, speed*120)
	fmt.Fprintf(&b, "  GPS-VIO EKF: mean %.2f m  p90 %.2f m  final %.2f m (fusion ~1 ms vs VIO 24 ms)\n",
		fused.Errors.Mean(), fused.Errors.Quantile(0.9), fused.FinalError)
	return b.String()
}

// extensions reports the supporting analyses beyond the paper's figures:
// CAN schedulability, multi-camera sync scaling, mobile-SoC data-movement
// overhead, the thermal constraint, and the RPR hourly-upload use case
// sketched in Sec. VII.
func extensions(core.Config, int64, time.Duration, int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extensions\n")

	fmt.Fprintf(&b, "— CAN schedule analysis (worst-case response times):\n")
	rts := canbus.AnalyzeSchedule(canbus.DefaultSchedule(), 500_000)
	b.WriteString(canbus.RenderAnalysis(rts, 500_000))

	mc := sensorsync.MultiCameraSyncExperiment(8, 10*time.Second, sim.NewRNG(21))
	fmt.Fprintf(&b, "— 8-camera hardware sync: mean spread %.2f ms, max %.2f ms over %d pulses\n",
		mc.MeanMs, mc.MaxMs, mc.Frames)

	soc := platform.MobileSoCDataPath()
	frame := sensors.FrameBytes
	fmt.Fprintf(&b, "— mobile-SoC DSP offload overhead: %.2f ms and %.2f W at 4x30 FPS (FPGA in-situ: 0)\n",
		soc.FrameOverhead(frame).Seconds()*1000, soc.SustainedPowerW(frame, 120))

	pad := models.PowerBudgetW()
	fmt.Fprintf(&b, "— thermal: %0.f W at +40C ambient -> %.0f C internal (ceiling %.0f C, headroom %.0f W)\n",
		pad, models.SteadyTempC(pad, 40), models.MaxComponentTempC, models.HeadroomW(pad, 40))

	swap := new(rpr.Engine).Transfer(rpr.BitstreamFeatureExtract.Bytes)
	fmt.Fprintf(&b, "— RPR hourly upload: %s\n",
		cloud.HourlyUploadPlan(42<<30, swap.Duration))

	// Pod vs shuttle: the two product lines' Eq. 1 envelopes.
	pod := models.DefaultLatencyModel()
	shuttle := models.DefaultLatencyModel()
	sp := vehicle.ShuttleParams()
	shuttle.BrakeDecel = sp.MaxBrake
	shuttle.MechLatency = sp.MechLatency
	fmt.Fprintf(&b, "— product lines at 164 ms Tcomp: pod avoids >= %.2f m (floor %.2f), shuttle >= %.2f m (floor %.2f)\n",
		pod.AvoidableDistance(164*time.Millisecond), pod.BrakingDistance(),
		shuttle.AvoidableDistance(164*time.Millisecond), shuttle.BrakingDistance())
	return b.String()
}
