package core

import (
	"math"
	"testing"
	"time"

	"sov/internal/platform"
)

// TestQuantKnobScalesSceneUnderstanding: -quant must divide the dense
// scene-understanding draws by platform.QuantSpeedup without disturbing any
// other stage (the RNG stream is shared, so every other draw is identical).
func TestQuantKnobScalesSceneUnderstanding(t *testing.T) {
	base := DefaultConfig()
	quant := base
	quant.Quant = true
	refRep := New(base, CruiseScenario(3)).Run(20 * time.Second)
	qRep := New(quant, CruiseScenario(3)).Run(20 * time.Second)

	if !qRep.QuantizedPerception || refRep.QuantizedPerception {
		t.Fatal("QuantizedPerception flag not recorded")
	}
	if refRep.Cycles != qRep.Cycles {
		t.Fatalf("cycle count changed under -quant: %d vs %d", refRep.Cycles, qRep.Cycles)
	}
	for _, c := range []struct {
		name     string
		ref, q   float64
		expected float64
	}{
		{"depth", refRep.Depth.Mean(), qRep.Depth.Mean(), platform.QuantSpeedup},
		{"detection", refRep.Detection.Mean(), qRep.Detection.Mean(), platform.QuantSpeedup},
		{"sensing", refRep.Sensing.Mean(), qRep.Sensing.Mean(), 1},
		{"planning", refRep.Planning.Mean(), qRep.Planning.Mean(), 1},
		{"localization", refRep.Localization.Mean(), qRep.Localization.Mean(), 1},
	} {
		if ratio := c.ref / c.q; math.Abs(ratio-c.expected) > 0.02 {
			t.Fatalf("%s mean ratio = %.3f, want %.3f", c.name, ratio, c.expected)
		}
	}
	if qRep.Tcomp.Mean() >= refRep.Tcomp.Mean() {
		t.Fatal("quantized Tcomp did not improve")
	}
}

// TestPipelineDepthMatchesLatencyModel: with ~165 ms compute at 10 Hz, 1-2
// earlier commands are still in flight at each capture — depth is a
// virtual-time property of the latency model.
func TestPipelineDepthMatchesLatencyModel(t *testing.T) {
	rep := New(DefaultConfig(), CruiseScenario(3)).Run(30 * time.Second)
	if m := rep.PipelineDepth.Mean(); m < 0.8 || m > 2.5 {
		t.Fatalf("mean in-flight depth = %.2f, want ~1-2 at 10 Hz x 165 ms", m)
	}
	if rep.PipelineDepth.Max() < 1 {
		t.Fatal("no overlap observed at all")
	}
}
