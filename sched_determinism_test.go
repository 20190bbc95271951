// Identity contract of the online heterogeneous scheduler (DESIGN.md §13).
// The scheduler observes latencies, projects thermal state, and rewrites the
// latency-draw transform every cycle window from virtual-time inputs only
// (TestCoreSimulationDeterministicAcrossWorkers holds the sched-attached run
// to worker invariance). Because its deployed-point multipliers are exactly
// 1.0, a calm cruise with the scheduler holding every decision must be
// byte-identical to the scheduler-off baseline.
package sov

import (
	"testing"

	"sov/internal/core"
)

// schedCruise runs the 5 s reference cruise at one worker with the online
// scheduler attached. An empty mapping starts from the deployed GPU/FPGA
// point.
func schedCruise(t *testing.T, mapping string) (string, *core.Report) {
	t.Helper()
	return cruiseWith(t, 1, func(c *core.Config) {
		c.Sched = true
		c.SchedMapping = mapping
	})
}

// TestSchedSteadyStateIdentity pins the scheduler's zero-overhead contract:
// under the calm cruise the thermal model never nears its ceiling, every
// window decision holds the deployed GPU/FPGA float point, and the draw
// multipliers are exactly 1.0 — so the trace must match the scheduler-off
// baseline byte for byte. The second half proves the knob is not inert: the
// same cruise pinned to the contended GPU/GPU start must draw different
// latencies (the contention factor inflates scene understanding) and the
// online scheduler must remap away from it.
func TestSchedSteadyStateIdentity(t *testing.T) {
	off, _ := cruiseWith(t, 1, nil)
	on, _ := schedCruise(t, "")
	if on != off {
		t.Fatal("scheduler-attached steady cruise diverges from the scheduler-off baseline; the deployed-point multipliers are not exact")
	}

	contended, rep := schedCruise(t, "GPU/GPU")
	if contended == off {
		t.Fatal("GPU/GPU-pinned sched trace identical to baseline; the mapping knob is inert")
	}
	if rep.Sched == nil || rep.Sched.Remaps < 1 {
		t.Fatalf("online scheduler never remapped away from the contended GPU/GPU start: %+v", rep.Sched)
	}
	if rep.Sched.Mapping != "GPU/FPGA" {
		t.Fatalf("online scheduler converged to %s, want the deployed GPU/FPGA point", rep.Sched.Mapping)
	}
}
