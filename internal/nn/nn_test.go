package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4)
	x.Set(1, 2, 3, 7)
	if x.At(1, 2, 3) != 7 {
		t.Fatal("set/get")
	}
	if x.Numel() != 24 {
		t.Fatalf("numel = %d", x.Numel())
	}
}

func TestTensorPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTensor(0, 1, 1)
}

func TestConvIdentityKernel(t *testing.T) {
	// A 1x1 conv with weight 1 is the identity.
	c := &Conv2D{InC: 1, OutC: 1, K: 1, Stride: 1, Pad: 0,
		Weights: []float32{1}, Bias: []float32{0}}
	in := NewTensor(1, 3, 3)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := c.Forward(in)
	for i := range out.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv changed data at %d", i)
		}
	}
}

func TestConvKnownSum(t *testing.T) {
	// 3x3 all-ones kernel over all-ones input, valid pad: every output is 9.
	c := &Conv2D{InC: 1, OutC: 1, K: 3, Stride: 1, Pad: 0,
		Weights: []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, Bias: []float32{0}}
	in := NewTensor(1, 5, 5)
	for i := range in.Data {
		in.Data[i] = 1
	}
	out := c.Forward(in)
	if out.H != 3 || out.W != 3 {
		t.Fatalf("out shape = %dx%d", out.H, out.W)
	}
	for _, v := range out.Data {
		if v != 9 {
			t.Fatalf("conv sum = %v, want 9", v)
		}
	}
}

func TestConvPaddingShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(1, 4, 3, 1, 1, true, rng)
	out := c.Forward(NewTensor(1, 8, 10))
	if out.C != 4 || out.H != 8 || out.W != 10 {
		t.Fatalf("same-pad shape = %dx%dx%d", out.C, out.H, out.W)
	}
}

func TestConvStride(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(1, 2, 3, 2, 1, false, rng)
	out := c.Forward(NewTensor(1, 8, 8))
	if out.H != 4 || out.W != 4 {
		t.Fatalf("stride-2 shape = %dx%d", out.H, out.W)
	}
}

func TestConvReLUClampsNegative(t *testing.T) {
	c := &Conv2D{InC: 1, OutC: 1, K: 1, Stride: 1, Pad: 0,
		Weights: []float32{-1}, Bias: []float32{0}, ReLU: true}
	in := NewTensor(1, 2, 2)
	for i := range in.Data {
		in.Data[i] = 1
	}
	out := c.Forward(in)
	for _, v := range out.Data {
		if v != 0 {
			t.Fatalf("relu output = %v", v)
		}
	}
}

func TestConvInputMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(3, 4, 3, 1, 1, false, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Forward(NewTensor(1, 8, 8))
}

func TestMaxPool(t *testing.T) {
	in := NewTensor(1, 2, 4)
	copy(in.Data, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	out := MaxPool2{}.Forward(in)
	if out.H != 1 || out.W != 2 {
		t.Fatalf("pool shape = %dx%d", out.H, out.W)
	}
	if out.At(0, 0, 0) != 6 || out.At(0, 0, 1) != 8 {
		t.Fatalf("pool values = %v", out.Data)
	}
}

func TestNetworkForwardShapes(t *testing.T) {
	y := NewTinyYOLO(120, 160, 4, 42)
	in := NewTensor(1, 120, 160)
	boxes := y.Infer(in)
	if len(boxes) != 15*20 {
		t.Fatalf("boxes = %d, want the 15x20 grid of a 120x160 input", len(boxes))
	}
	for _, b := range boxes {
		if b.Objectness < 0 || b.Objectness > 1 || b.CX < 0 || b.CX > 1 ||
			b.CY < 0 || b.CY > 1 || b.W < 0 || b.W > 1 {
			t.Fatalf("box out of range: %+v", b)
		}
		if len(b.ClassScores) != 4 {
			t.Fatalf("classes = %d", len(b.ClassScores))
		}
	}
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatalf("sigmoid(0) = %v", Sigmoid(0))
	}
	if math.Abs(float64(Sigmoid(10))-1) > 1e-4 || Sigmoid(-10) > 1e-4 {
		t.Fatal("sigmoid saturation wrong")
	}
}

func BenchmarkTinyYOLOInference(b *testing.B) {
	y := NewTinyYOLO(120, 160, 4, 42)
	in := NewTensor(1, 120, 160)
	for i := range in.Data {
		in.Data[i] = float32(i%31) / 31
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y.Infer(in)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := NewTensor(2, 2, 2)
	copy(in.Data, []float32{1, 2, 3, 4, 10, 20, 30, 40})
	out := GlobalAvgPool{}.Forward(in)
	if out.C != 2 || out.H != 1 || out.W != 1 {
		t.Fatalf("shape = %dx%dx%d", out.C, out.H, out.W)
	}
	if out.Data[0] != 2.5 || out.Data[1] != 25 {
		t.Fatalf("gap = %v", out.Data)
	}
}

func TestFCKnown(t *testing.T) {
	f := &FC{In: 2, Out: 1, Weights: []float32{2, -1}, Bias: []float32{0.5}}
	in := NewTensor(2, 1, 1)
	copy(in.Data, []float32{3, 4})
	out := f.Forward(in)
	if out.Data[0] != 2*3-4+0.5 {
		t.Fatalf("fc = %v", out.Data[0])
	}
}

func TestFCReLUAndPanic(t *testing.T) {
	f := &FC{In: 1, Out: 1, Weights: []float32{-1}, Bias: []float32{0}, ReLU: true}
	in := NewTensor(1, 1, 1)
	in.Data[0] = 5
	if f.Forward(in).Data[0] != 0 {
		t.Fatal("relu failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	f.Forward(NewTensor(3, 1, 1))
}
