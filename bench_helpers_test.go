package sov

import "sov/internal/planning"

// Helpers shared by the planner-comparison benches; kept out of
// bench_test.go so the per-figure harness reads as an index.

func newBenchMPC() *planning.MPC {
	return planning.NewMPC(planning.DefaultMPCConfig())
}

func newBenchEM() *planning.EMPlanner {
	return planning.NewEMPlanner()
}

func benchPlanInput() planning.Input {
	return planning.Input{
		Speed:       5.6,
		TargetSpeed: 5.6,
		LaneWidth:   3,
		Obstacles:   []planning.Obstacle{{S: 20, D: 0.3, Radius: 0.5}},
	}
}
