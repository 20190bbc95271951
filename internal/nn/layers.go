package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// GlobalAvgPool collapses each channel to its mean, producing a Cx1x1
// tensor — the standard head between the conv trunk and a classifier.
type GlobalAvgPool struct{}

// Name implements Layer.
func (GlobalAvgPool) Name() string { return "gap" }

// OutShape implements Layer.
func (GlobalAvgPool) OutShape(c, _, _ int) (int, int, int) { return c, 1, 1 }

// FLOPs implements Layer.
func (GlobalAvgPool) FLOPs(c, h, w int) int64 { return int64(c) * int64(h) * int64(w) }

// Forward implements Layer.
func (GlobalAvgPool) Forward(in *Tensor) *Tensor {
	out := NewTensor(in.C, 1, 1)
	n := float32(in.H * in.W)
	for c := 0; c < in.C; c++ {
		var s float32
		base := c * in.H * in.W
		for i := 0; i < in.H*in.W; i++ {
			s += in.Data[base+i]
		}
		out.Data[c] = s / n
	}
	return out
}

// FC is a fully-connected layer over a flattened input.
type FC struct {
	In, Out int
	Weights []float32 // [Out][In]
	Bias    []float32
	ReLU    bool
}

// NewFC builds an FC layer with deterministic He-initialized weights.
func NewFC(in, out int, relu bool, rng *rand.Rand) *FC {
	f := &FC{In: in, Out: out, ReLU: relu}
	f.Weights = make([]float32, in*out)
	std := float32(math.Sqrt(2.0 / float64(in)))
	for i := range f.Weights {
		f.Weights[i] = float32(rng.NormFloat64()) * std
	}
	f.Bias = make([]float32, out)
	return f
}

// Name implements Layer.
func (f *FC) Name() string { return fmt.Sprintf("fc/%d->%d", f.In, f.Out) }

// OutShape implements Layer.
func (f *FC) OutShape(_, _, _ int) (int, int, int) { return f.Out, 1, 1 }

// FLOPs implements Layer.
func (f *FC) FLOPs(_, _, _ int) int64 { return int64(f.In) * int64(f.Out) * 2 }

// Forward implements Layer.
func (f *FC) Forward(in *Tensor) *Tensor {
	if in.Numel() != f.In {
		panic(fmt.Sprintf("nn: fc input %d != %d", in.Numel(), f.In))
	}
	out := NewTensor(f.Out, 1, 1)
	for o := 0; o < f.Out; o++ {
		s := f.Bias[o]
		row := f.Weights[o*f.In : (o+1)*f.In]
		for i, v := range in.Data {
			s += row[i] * v
		}
		if f.ReLU && s < 0 {
			s = 0
		}
		out.Data[o] = s
	}
	return out
}

// Softmax normalizes a logit vector in place and returns it.
func Softmax(x []float32) []float32 {
	if len(x) == 0 {
		return x
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - max))
		x[i] = float32(e)
		sum += e
	}
	for i := range x {
		x[i] = float32(float64(x[i]) / sum)
	}
	return x
}

// Classifier is a small conv-trunk + GAP + FC network producing class
// probabilities for an image crop — the per-object classification stage
// that refines the detector's class output.
type Classifier struct {
	Net     *Network
	Classes int
	inH     int
	inW     int
}

// NewClassifier builds a deterministic classifier for crops of the given
// size.
func NewClassifier(inH, inW, classes int, seed int64) *Classifier {
	// Weight init draws from an explicit caller-provided seed (detrand:
	// never the global math/rand source), so a model is a pure function of
	// (architecture, seed).
	rng := rand.New(rand.NewSource(seed))
	net := &Network{Layers: []Layer{
		NewConv2D(1, 8, 3, 1, 1, true, rng),
		MaxPool2{},
		NewConv2D(8, 16, 3, 1, 1, true, rng),
		MaxPool2{},
		GlobalAvgPool{},
		NewFC(16, classes, false, rng),
	}}
	return &Classifier{Net: net, Classes: classes, inH: inH, inW: inW}
}

// Classify returns the class probabilities for a crop.
func (c *Classifier) Classify(crop *Tensor) []float32 {
	logits := c.Net.Forward(crop)
	out := make([]float32, c.Classes)
	copy(out, logits.Data)
	return Softmax(out)
}

// TotalFLOPs estimates one forward pass.
func (c *Classifier) TotalFLOPs() int64 {
	return c.Net.TotalFLOPs(1, c.inH, c.inW)
}
