package sched

import (
	"sort"
	"testing"
	"time"

	"sov/internal/models"
	"sov/internal/platform"
	"sov/internal/rpr"
)

func ms(v float64) time.Duration { return time.Duration(v * 1e6) }

func mustMapping(t *testing.T, s string) platform.Mapping {
	t.Helper()
	m, err := ParseMapping(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// drive advances the scheduler n cycles against a synthetic workload: the
// given baseline (GPU/FPGA float, per-camera) task latencies in ms, scaled
// by whatever Transform the scheduler issues — exactly what the core latency
// model does — then observed back. Keyframes fire every kfEvery cycles
// (0 = never). Tracking always reports the KCF branch.
func drive(s *Scheduler, n, kfEvery int, depth, det, track, loc float64) {
	for i := 0; i < n; i++ {
		kf := kfEvery > 0 && s.cycle%kfEvery == 0
		tr, _ := s.BeginCycle(0, kf)
		q := 1.0
		if tr.Quant {
			q = platform.QuantSpeedup
		}
		s.Observe(ms(depth/q*tr.Depth), ms(det/q*tr.Det), ms(track*tr.Track), ms(loc*tr.Loc), true)
	}
}

// calm is the steady-cruise workload: the Fig. 6 GPU/FPGA latencies at a
// light duty that keeps the thermal model far from its ceiling.
func calm(s *Scheduler, n int) { drive(s, n, 5, 4, 6, 1.7, 3.1) }

func TestParseMapping(t *testing.T) {
	m, err := ParseMapping("GPU/FPGA")
	if err != nil || m.SceneUnderstanding != "GPU" || m.Localization != "FPGA" {
		t.Fatalf("ParseMapping(GPU/FPGA) = %+v, %v", m, err)
	}
	for _, bad := range []string{"", "GPU", "/FPGA", "GPU/"} {
		if _, err := ParseMapping(bad); err == nil {
			t.Fatalf("ParseMapping(%q) accepted", bad)
		}
	}
}

func TestNewRejectsUnknownMapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mapping = mustMapping(t, "XPU/FPGA")
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a mapping outside the catalog")
	}
	cfg = DefaultConfig()
	cfg.WindowCycles = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted WindowCycles=0")
	}
}

// TestCandidatesNameOrdered pins the determinism prerequisite of the remap
// scan: the candidate table is built in sorted name order, so the strict-<
// best search resolves ties identically on every run.
func TestCandidatesNameOrdered(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(s.cand))
	for i, c := range s.cand {
		names[i] = c.name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("candidate table is not name-ordered: %v", names)
	}
	if len(names) != 16 {
		t.Fatalf("expected 4x4 candidate pairs, got %d: %v", len(names), names)
	}
}

// TestRemapConvergesFromContendedStart: started on the contended GPU/GPU
// pair, the scheduler must remap to the deployed GPU/FPGA point at the first
// window — and then never move again: no candidate beats it strictly.
func TestRemapConvergesFromContendedStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mapping = mustMapping(t, "GPU/GPU")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(s, 200, 5, 40, 60, 17, 31)
	st := s.Snapshot()
	if st.Mapping != "GPU/FPGA" {
		t.Fatalf("converged to %s, want GPU/FPGA", st.Mapping)
	}
	if st.Remaps != 1 {
		t.Fatalf("remaps = %d, want exactly 1 (no ping-pong)", st.Remaps)
	}
}

// TestRemapHoldsAtDeployedPoint: from the deployed mapping under the
// deployed workload there is nothing better, so no remap may ever fire.
func TestRemapHoldsAtDeployedPoint(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(s, 200, 5, 40, 60, 17, 31)
	if st := s.Snapshot(); st.Remaps != 0 || st.Mapping != "GPU/FPGA" {
		t.Fatalf("deployed point drifted: %+v", st)
	}
}

// TestStaticPinsEverything: Static disables the decision function entirely —
// no windows, no remaps, no operating-point switches, even from a bad start.
func TestStaticPinsEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mapping = mustMapping(t, "GPU/GPU")
	cfg.Static = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(s, 100, 5, 40, 60, 17, 31)
	st := s.Snapshot()
	if st.Windows != 0 || st.Remaps != 0 || st.OpSwitches != 0 {
		t.Fatalf("static scheduler decided something: %+v", st)
	}
	if st.Mapping != "GPU/GPU" || st.Quantized {
		t.Fatalf("static scheduler moved: %+v", st)
	}
}

// TestThermalOpPoint: a detection-stall workload hot enough to push the
// projected steady temperature past the component ceiling forces the int8
// point; while the *float-equivalent* temperature stays above thermalExitC
// the switch holds (no flap); once the load — and with it the projection —
// subsides, the scheduler returns to float exactly once.
func TestThermalOpPoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AmbientC = 45
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Saturated scene: 700 ms float-equivalent detection stalls.
	drive(s, 2*cfg.WindowCycles, 1, 40, 700, 17, 31)
	if !s.Snapshot().Quantized {
		t.Fatalf("no quant entry under thermal pressure (temp %.1fC)", s.Snapshot().TempC)
	}
	if s.Snapshot().TempC < models.MaxComponentTempC {
		t.Fatalf("entered quant below the ceiling: %.1fC", s.Snapshot().TempC)
	}
	sw := s.Snapshot().OpSwitches
	drive(s, 10*cfg.WindowCycles, 1, 40, 700, 17, 31)
	if got := s.Snapshot().OpSwitches; got != sw {
		t.Fatalf("operating point flapped under sustained load: %d -> %d switches", sw, got)
	}
	// Load subsides: the duty EWMA decays, the float-equivalent projection
	// drops below thermalExitC, and the point floats again — once.
	calm(s, 40*cfg.WindowCycles)
	st := s.Snapshot()
	if st.Quantized || st.OpSwitches != sw+1 {
		t.Fatalf("no clean thermal exit: %+v", st)
	}
	if st.TempC > thermalExitC {
		t.Fatalf("exited while projecting %.1fC > exit %.0fC", st.TempC, thermalExitC)
	}
}

// TestQuantFloorNeverFloats: with the perception stack built quantized
// (-quant), the scheduler starts at int8 and may never switch to float,
// regardless of how cold the enclosure runs.
func TestQuantFloorNeverFloats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QuantFloor = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Snapshot().Quantized {
		t.Fatal("QuantFloor did not start quantized")
	}
	calm(s, 20*cfg.WindowCycles)
	if st := s.Snapshot(); !st.Quantized || st.OpSwitches != 0 {
		t.Fatalf("QuantFloor floated: %+v", st)
	}
}

// TestNoteSwapAccounting: swaps charged via NoteSwap accumulate in the stats.
func TestNoteSwapAccounting(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.NoteSwap(3 * time.Millisecond)
	s.NoteSwap(3 * time.Millisecond)
	if st := s.Snapshot(); st.Swaps != 2 || st.SwapTotal != 6*time.Millisecond {
		t.Fatalf("swap accounting: %+v", st)
	}
}

// TestMulticamBatching: the detection multiplier a candidate is charged for
// extra cameras depends on its batching capability — marginal cost on the
// batching-capable GPU, full sequential cost elsewhere.
func TestMulticamBatching(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cameras = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := s.BeginCycle(0, true)
	want := 1 + batchMarginal*2 // GPU batches: 1 + 0.4/extra image
	if tr.Det != want {
		t.Fatalf("GPU 3-camera Det = %.2f, want %.2f", tr.Det, want)
	}

	cfg.Mapping = mustMapping(t, "FPGA/FPGA")
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ = s.BeginCycle(0, true)
	seq := s.cand[s.cur].detR * 3 // FPGA runs cameras sequentially
	if tr.Det != seq {
		t.Fatalf("FPGA 3-camera Det = %.2f, want %.2f", tr.Det, seq)
	}
}

// TestSchedulerDeterministic: two schedulers fed the identical cycle
// sequence land in identical states — the decision function is pure over
// EWMA state accumulated in cycle order.
func TestSchedulerDeterministic(t *testing.T) {
	run := func() Stats {
		cfg := DefaultConfig()
		cfg.Mapping = mustMapping(t, "GPU/GPU")
		cfg.AmbientC = 45
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		drive(s, 150, 5, 40, 700, 17, 31)
		s.NoteSwap(2 * time.Millisecond)
		drive(s, 150, 3, 4, 6, 1.7, 3.1)
		return s.Snapshot()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical drives diverged:\n%+v\n%+v", a, b)
	}
}

// TestFrontEndFollowsKeyframes: the front-end bitstream is the keyframe
// schedule's, cycle by cycle.
func TestFrontEndFollowsKeyframes(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, kf := range []bool{true, false, false, true} {
		s.BeginCycle(0, kf)
		want := rpr.BitstreamFeatureTrack
		if kf {
			want = rpr.BitstreamFeatureExtract
		}
		if got := s.FrontEnd(); got != want {
			t.Fatalf("keyframe=%v: FrontEnd = %v, want %v", kf, got, want)
		}
	}
}
