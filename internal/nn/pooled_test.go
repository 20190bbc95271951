package nn

import (
	"testing"

	"sov/internal/parallel"
)

// buildTestNet returns a small conv/pool stack and a deterministic input.
func buildTestNet() (*Network, *Tensor) {
	y := NewTinyYOLO(64, 48, 4, 7)
	in := NewTensor(1, 64, 48)
	for i := range in.Data {
		in.Data[i] = float32(i%251) / 251
	}
	return y.Backbone, in
}

func TestForwardPooledMatchesForward(t *testing.T) {
	net, in := buildTestNet()
	want := net.Forward(in)
	got := net.ForwardPooled(in)
	if got.C != want.C || got.H != want.H || got.W != want.W {
		t.Fatalf("shape %dx%dx%d != %dx%dx%d", got.C, got.H, got.W, want.C, want.H, want.W)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: pooled %v != fresh %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestForwardPooledSteadyStateAllocs is the satellite audit gate: a warm
// forward pass through the network's own buffers on one worker must not
// allocate at all.
func TestForwardPooledSteadyStateAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	net, in := buildTestNet()
	run := func() { net.ForwardPooled(in) }
	for i := 0; i < 4; i++ {
		run() // grow the activation buffers
	}
	if avg := testing.AllocsPerRun(20, run); avg > 0 {
		t.Fatalf("warm ForwardPooled allocates %.2f allocs/op, want 0", avg)
	}
}

func TestInferIntoMatchesInferAndReuses(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	y := NewTinyYOLO(64, 48, 4, 7)
	in := NewTensor(1, 64, 48)
	for i := range in.Data {
		in.Data[i] = float32((i*7)%193) / 193
	}
	want := y.Infer(in)
	out := y.InferInto(in, nil)
	if len(out) != len(want) {
		t.Fatalf("len %d != %d", len(out), len(want))
	}
	for i := range want {
		a, b := out[i], want[i]
		if a.CX != b.CX || a.CY != b.CY || a.W != b.W || a.H != b.H || a.Objectness != b.Objectness {
			t.Fatalf("cell %d differs: %+v != %+v", i, a, b)
		}
		for c := range b.ClassScores {
			if a.ClassScores[c] != b.ClassScores[c] {
				t.Fatalf("cell %d class %d differs", i, c)
			}
		}
	}
	run := func() { out = y.InferInto(in, out) }
	for i := 0; i < 4; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(20, run); avg > 0 {
		t.Fatalf("warm InferInto allocates %.2f allocs/op, want 0", avg)
	}
}
