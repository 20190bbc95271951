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
