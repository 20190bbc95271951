package pointcloud

import (
	"testing"

	"sov/internal/mathx"
	"sov/internal/parallel"
	"sov/internal/sim"
)

// TestLocalizeSteadyStateAllocs is the satellite audit gate: a warm serial
// ICP localization must not allocate — every iteration reuses the tree's
// correspondence list.
func TestLocalizeSteadyStateAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := sim.NewRNG(6)
	target := GenerateScan(800, 11, rng)
	src := target.Transform(0.02, mathx.Vec3{X: 0.1, Y: -0.05})
	tree := Build(target, nil)
	run := func() { Localize(tree, src, nil, 5, 2) }
	for i := 0; i < 3; i++ {
		run() // grow the match list
	}
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Fatalf("warm Localize allocates %.2f allocs/op, want 0", avg)
	}
}

// TestLocalizePooledMatchesUnpooled pins the reused correspondence list to
// the first run's result: reuse must not change a single bit of the
// estimate.
func TestLocalizePooledMatchesUnpooled(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := sim.NewRNG(7)
	target := GenerateScan(1500, 11, rng)
	src := target.Transform(0.05, mathx.Vec3{X: 0.4, Y: -0.2})
	tree := Build(target, nil)
	first := Localize(tree, src, nil, 20, 2)
	for i := 0; i < 3; i++ {
		again := Localize(tree, src, nil, 20, 2)
		if again != first {
			t.Fatalf("rerun diverged: %+v != %+v", again, first)
		}
	}
}
