// Benchmark harness. BenchmarkExperiments times every section sovbench
// prints — each table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for the paper-vs-measured
// record) — through the same internal/experiments table at sovbench's
// defaults, so -bench=BenchmarkExperiments/fig10 times exactly what
// sovbench -only fig10 prints. The rest are the component benchmarks
// Table III names and the ablations, which have no sovbench section.
package sov

import (
	"testing"
	"time"

	"sov/internal/core"
	"sov/internal/detect"
	"sov/internal/experiments"
	"sov/internal/fusion"
	"sov/internal/mathx"
	"sov/internal/planning"
	"sov/internal/track"
	"sov/internal/vision"
)

// BenchmarkExperiments runs one sub-benchmark per experiments.Sections row
// at sovbench's default flags: seed 1, a 120 s cruise, 4 000-point scans.
func BenchmarkExperiments(b *testing.B) {
	for _, s := range experiments.Sections {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Run(core.DefaultConfig(), 1, 120*time.Second, 4000)
			}
		})
	}
}

// --- Table III: planner comparison, fusion / spatial sync vs KCF ---------------

func BenchmarkPlannerComparisonMPC(b *testing.B) {
	m := planning.NewMPC(planning.DefaultMPCConfig())
	in := benchPlanInput()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Plan(in)
	}
}

func BenchmarkPlannerComparisonEM(b *testing.B) {
	e := planning.NewEMPlanner()
	in := benchPlanInput()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Plan(in)
	}
}

// benchPlanInput is the planner comparison's one aligned input: cruise
// speed with one obstacle 20 m ahead.
func benchPlanInput() planning.Input {
	return planning.Input{
		Speed:       5.6,
		TargetSpeed: 5.6,
		LaneWidth:   3,
		Obstacles:   []planning.Obstacle{{S: 20, D: 0.3, Radius: 0.5}},
	}
}

func BenchmarkSpatialSync(b *testing.B) {
	cfg := fusion.DefaultSpatialSyncConfig()
	var dets []detect.Object
	var tracks []track.RadarTrack
	for i := 0; i < 8; i++ {
		dets = append(dets, detect.Object{ID: i, Pos: mathx.Vec2{X: 10 + float64(i), Y: float64(i % 3)}})
		tracks = append(tracks, track.RadarTrack{ID: i, Pos: mathx.Vec2{X: 8.8 + float64(i), Y: float64(i % 3)}})
	}
	var sc fusion.SyncScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.SpatialSyncInto(cfg, dets, tracks)
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
