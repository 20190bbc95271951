// Package nn is a minimal CNN inference engine — the DNN substrate behind
// the object-detection workload (Table III: YOLO/Mask R-CNN). The paper's
// models are trained on proprietary field data; we run untrained (but
// deterministic) weights through the same computational structure so that
// the compute shape of DNN detection is real, while detection *accuracy* is
// modeled separately (internal/detect). Inference runs on the CPU with the
// convolutions tiled over the internal/parallel worker pool (each output
// element keeps its serial accumulation order, so results are byte-identical
// for any worker count) and every other layer serial; the platform package
// maps its cost onto GPU/TX2/FPGA operating points.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"sov/internal/parallel"
)

// Tensor is a CHW float32 tensor.
type Tensor struct {
	C, H, W int
	Data    []float32
}

// NewTensor allocates a zero tensor.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// resize makes t a c×h×w tensor with unspecified contents, growing its
// storage only when it is too small, and returns it. Layers that write every
// output element (conv, pool) can consume it directly.
func (t *Tensor) resize(c, h, w int) *Tensor {
	n := c * h * w
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
	}
	t.C, t.H, t.W, t.Data = c, h, w, t.Data[:n]
	return t
}

// At returns element (c, y, x).
func (t *Tensor) At(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// Set assigns element (c, y, x).
func (t *Tensor) Set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// Numel returns the element count.
func (t *Tensor) Numel() int { return len(t.Data) }

// Layer is one network stage.
type Layer interface {
	Forward(in *Tensor) *Tensor
	// OutShape gives the output shape for an input shape.
	OutShape(c, h, w int) (int, int, int)
	Name() string
}

// IntoLayer is implemented by layers that can write into a caller-provided
// output tensor, enabling the allocation-free forward path.
type IntoLayer interface {
	Layer
	// ForwardInto computes the layer output into out, which must have the
	// layer's OutShape for the input. Every output element is written, so
	// out may hold stale values on entry.
	ForwardInto(in, out *Tensor)
}

// Conv2D is a stride-s same/valid 2-D convolution with bias and optional
// fused ReLU.
type Conv2D struct {
	InC, OutC int
	K         int // kernel size (square)
	Stride    int
	Pad       int
	Weights   []float32 // [outC][inC][K][K]
	Bias      []float32
	ReLU      bool
}

// NewConv2D builds a conv layer with He-initialized deterministic weights.
func NewConv2D(inC, outC, k, stride, pad int, relu bool, rng *rand.Rand) *Conv2D {
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, ReLU: relu}
	n := outC * inC * k * k
	c.Weights = make([]float32, n)
	std := float32(math.Sqrt(2.0 / float64(inC*k*k)))
	for i := range c.Weights {
		c.Weights[i] = float32(rng.NormFloat64()) * std
	}
	c.Bias = make([]float32, outC)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("conv%dx%d/%d->%d", c.K, c.K, c.InC, c.OutC) }

// OutShape implements Layer.
func (c *Conv2D) OutShape(_, h, w int) (int, int, int) {
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	return c.OutC, oh, ow
}

// Forward implements Layer.
func (c *Conv2D) Forward(in *Tensor) *Tensor {
	oc, oh, ow := c.OutShape(in.C, in.H, in.W)
	out := NewTensor(oc, oh, ow)
	c.ForwardInto(in, out)
	return out
}

// ForwardInto implements IntoLayer. Output channels are independent; with
// more than one worker they fan out across the pool. Each output element
// keeps its serial accumulation order, so the tensor is byte-identical for
// any worker count. The serial path skips the fan-out closure entirely,
// keeping ForwardPooled allocation-free.
//
// A tile carries at least ~16k MACs: on a smaller layer (the detector's 1×1
// head over a 7×9 plane is 2k MACs a channel, 90 µs in all) waking a second
// worker costs more than it returns, so the whole layer is one tile and takes
// the serial path (EXPERIMENTS.md, "Fan-out audit").
//
//sov:hotpath
func (c *Conv2D) ForwardInto(in, out *Tensor) {
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: conv input channels %d != %d", in.C, c.InC))
	}
	oc, oh, ow := c.OutShape(in.C, in.H, in.W)
	if out.C != oc || out.H != oh || out.W != ow {
		panic(fmt.Sprintf("nn: conv output shape %dx%dx%d != %dx%dx%d", out.C, out.H, out.W, oc, oh, ow))
	}
	grain := 1 + 16384/(oh*ow*c.InC*c.K*c.K)
	if parallel.Workers() <= 1 || oc <= grain {
		for o := 0; o < oc; o++ {
			c.forwardChannel(in, out, o, oh, ow)
		}
		return
	}
	//sovlint:ignore hotalloc fan-out closure only exists on the parallel path; the serial path above is allocation-free
	parallel.For(oc, grain, func(o0, o1 int) {
		for o := o0; o < o1; o++ {
			c.forwardChannel(in, out, o, oh, ow)
		}
	})
}

// forwardChannel computes one output channel of the convolution.
//
//sov:hotpath
func (c *Conv2D) forwardChannel(in, out *Tensor, o, oh, ow int) {
	wBase := o * c.InC * c.K * c.K
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			sum := c.Bias[o]
			iy0 := oy*c.Stride - c.Pad
			ix0 := ox*c.Stride - c.Pad
			for ic := 0; ic < c.InC; ic++ {
				wc := wBase + ic*c.K*c.K
				for ky := 0; ky < c.K; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= in.H {
						continue
					}
					rowBase := (ic*in.H + iy) * in.W
					wRow := wc + ky*c.K
					for kx := 0; kx < c.K; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= in.W {
							continue
						}
						sum += c.Weights[wRow+kx] * in.Data[rowBase+ix]
					}
				}
			}
			if c.ReLU && sum < 0 {
				sum = 0
			}
			out.Set(o, oy, ox, sum)
		}
	}
}

// MaxPool2 is a 2×2 stride-2 max pool.
type MaxPool2 struct{}

// Name implements Layer.
func (MaxPool2) Name() string { return "maxpool2" }

// OutShape implements Layer.
func (MaxPool2) OutShape(c, h, w int) (int, int, int) { return c, h / 2, w / 2 }

// Forward implements Layer.
func (MaxPool2) Forward(in *Tensor) *Tensor {
	out := NewTensor(in.C, in.H/2, in.W/2)
	MaxPool2{}.ForwardInto(in, out)
	return out
}

// ForwardInto implements IntoLayer.
//
//sov:hotpath
func (MaxPool2) ForwardInto(in, out *Tensor) {
	if out.C != in.C || out.H != in.H/2 || out.W != in.W/2 {
		panic(fmt.Sprintf("nn: pool output shape %dx%dx%d != %dx%dx%d", out.C, out.H, out.W, in.C, in.H/2, in.W/2))
	}
	for c := 0; c < in.C; c++ {
		poolChannel(in, out, c)
	}
}

// poolChannel max-pools one channel.
//
//sov:hotpath
func poolChannel(in, out *Tensor, c int) {
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			m := in.At(c, 2*y, 2*x)
			if v := in.At(c, 2*y, 2*x+1); v > m {
				m = v
			}
			if v := in.At(c, 2*y+1, 2*x); v > m {
				m = v
			}
			if v := in.At(c, 2*y+1, 2*x+1); v > m {
				m = v
			}
			out.Set(c, y, x, m)
		}
	}
}

// Network is an ordered stack of layers.
type Network struct {
	Layers []Layer
	// act is the pair of activation buffers ForwardPooled alternates
	// between; it belongs to this network alone.
	act [2]Tensor
}

// Forward runs the stack.
func (n *Network) Forward(in *Tensor) *Tensor {
	t := in
	for _, l := range n.Layers {
		t = l.Forward(t)
	}
	return t
}

// ForwardPooled runs the stack with layer i writing into the network's own
// activation buffer i%2, so a warm steady state allocates nothing. The
// result is byte-identical to Forward. It belongs to the network and is
// valid until the next call (the input itself for an empty stack).
func (n *Network) ForwardPooled(in *Tensor) *Tensor {
	cur := in
	for i, l := range n.Layers {
		il, ok := l.(IntoLayer)
		if !ok {
			cur = l.Forward(cur)
			continue
		}
		out := n.act[i%2].resize(l.OutShape(cur.C, cur.H, cur.W))
		il.ForwardInto(cur, out)
		cur = out
	}
	return cur
}

// Sigmoid is the logistic function used on the detection head outputs.
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
