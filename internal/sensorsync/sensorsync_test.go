package sensorsync

import (
	"testing"
	"time"

	"sov/internal/sim"
)

func TestSoftwareSyncHasLargeVariableError(t *testing.T) {
	res := SoftwareSyncExperiment(20*time.Second, sim.NewRNG(1))
	if res.Frames < 500 {
		t.Fatalf("frames = %d", res.Frames)
	}
	// Fig. 12b: software pairing errors reach tens of ms (C0 matched with
	// M7 is ~29 ms at 240 Hz).
	if res.MeanMs < 5 {
		t.Fatalf("software sync mean error = %.2f ms, expected tens of ms", res.MeanMs)
	}
	if res.MaxMs < 20 {
		t.Fatalf("software sync max error = %.2f ms, expected > 20 ms", res.MaxMs)
	}
	// And it is variable, not a constant compensable bias: the worst 1% of
	// frames sit well above the mean, not one outlier.
	if res.P99Ms-res.MeanMs < 2 {
		t.Fatalf("software sync error p99 %.2f ms vs mean %.2f ms, expected variable", res.P99Ms, res.MeanMs)
	}
}

func TestHardwareSyncSubMillisecond(t *testing.T) {
	res := HardwareSyncExperiment(20*time.Second, sim.NewRNG(2))
	if res.Frames < 500 {
		t.Fatalf("frames = %d", res.Frames)
	}
	// Sec. VI-A3: "The localization results are indistinguishable from
	// ground truth"; pairing error is bounded by the interface jitter.
	if res.MeanMs > 2 {
		t.Fatalf("hardware sync mean error = %.3f ms, want ~1 ms", res.MeanMs)
	}
	if res.MaxMs > 5 {
		t.Fatalf("hardware sync max error = %.3f ms", res.MaxMs)
	}
}

func TestHardwareBeatsSoftwareByOrderOfMagnitude(t *testing.T) {
	sw := SoftwareSyncExperiment(15*time.Second, sim.NewRNG(3))
	hw := HardwareSyncExperiment(15*time.Second, sim.NewRNG(3))
	if sw.MeanMs < 8*hw.MeanMs {
		t.Fatalf("sw %.2f ms vs hw %.2f ms: want >= 8x gap", sw.MeanMs, hw.MeanMs)
	}
}

func TestSynchronizerFootprint(t *testing.T) {
	r := HardwareSynchronizerResources()
	if r.LUTs != 1443 || r.Registers != 1587 {
		t.Fatalf("resources = %+v", r)
	}
	if r.PowerW > 0.01 {
		t.Fatalf("power = %v W, want ~5 mW", r.PowerW)
	}
	if r.AddedLatency >= time.Millisecond {
		t.Fatalf("added latency = %v, want < 1 ms", r.AddedLatency)
	}
}

func TestDepthErrorGrowsWithOffset(t *testing.T) {
	// Fig. 11a: depth error increases as the stereo pair desynchronizes.
	objZ, v, maxD := 5.0, 1.2, 25.0
	e0 := DepthErrorAtOffset(0, objZ, v, maxD)
	e30 := DepthErrorAtOffset(30*time.Millisecond, objZ, v, maxD)
	e90 := DepthErrorAtOffset(90*time.Millisecond, objZ, v, maxD)
	if e0 > 0.5 {
		t.Fatalf("synchronized depth error = %.2f m, want small", e0)
	}
	if e30 <= e0 {
		t.Fatalf("30 ms error (%.2f) should exceed synced (%.2f)", e30, e0)
	}
	if e90 <= e30 {
		t.Fatalf("90 ms error (%.2f) should exceed 30 ms (%.2f)", e90, e30)
	}
	// Meter-scale error from a 30 ms offset (paper: ~5 m at their
	// full-scale rig; ours is a scaled-down 160x120 rig — see DESIGN.md).
	if e30 < 0.8 {
		t.Fatalf("30 ms depth error = %.2f m, want meter-scale", e30)
	}
}

func TestAnalyticMatchesRenderedDirection(t *testing.T) {
	objZ, v, maxD := 5.0, 1.2, 25.0
	for _, off := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond} {
		a := AnalyticDepthError(off, objZ, v, maxD)
		r := DepthErrorAtOffset(off, objZ, v, maxD)
		if a == 0 || r == 0 {
			t.Fatalf("degenerate errors at %v: analytic=%v rendered=%v", off, a, r)
		}
		// Within a factor of 3 of each other (matcher quantization).
		ratio := a / r
		if ratio < 0.33 || ratio > 3 {
			t.Fatalf("analytic %v vs rendered %v at %v", a, r, off)
		}
	}
}

func TestAnalyticDepthErrorSaturates(t *testing.T) {
	// Past the offset where disparity collapses, the error clamps at the
	// stack's max depth.
	e := AnalyticDepthError(500*time.Millisecond, 5, 1.2, 25)
	if e != 20 {
		t.Fatalf("saturated error = %v, want maxDepth - objZ = 20", e)
	}
}

func TestMultiCameraSyncScales(t *testing.T) {
	// Sec. VI-A3: the design extends to more cameras with no loss of
	// precision — the spread stays at interface-jitter level for 4 and 8
	// cameras alike.
	four := MultiCameraSyncExperiment(4, 10*time.Second, sim.NewRNG(4))
	eight := MultiCameraSyncExperiment(8, 10*time.Second, sim.NewRNG(5))
	if four.Frames < 200 || eight.Frames < 200 {
		t.Fatalf("frames = %d/%d", four.Frames, eight.Frames)
	}
	// Spread is the max-min of per-camera interface jitter; the extreme
	// spread grows slowly with camera count (order statistics) but stays
	// at the interface-jitter scale — far below software sync's tens of ms.
	if four.MeanMs > 1.5 || eight.MeanMs > 2.5 {
		t.Fatalf("multi-cam spread too large: 4-cam %.2f ms, 8-cam %.2f ms", four.MeanMs, eight.MeanMs)
	}
	// Doubling the rig must not blow up the spread.
	if eight.MeanMs > 3*four.MeanMs+0.1 {
		t.Fatalf("spread grew with camera count: %.2f -> %.2f ms", four.MeanMs, eight.MeanMs)
	}
}

func TestMultiCameraMinimumTwo(t *testing.T) {
	r := MultiCameraSyncExperiment(1, 2*time.Second, sim.NewRNG(6))
	if r.MeanMs == 0 {
		t.Fatal("a one-camera rig has no spread: the experiment must clamp to 2 cameras")
	}
}
