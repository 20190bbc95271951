package nn

import "math/rand"

// GridBox is one raw detection-head output cell after decoding: a box in
// normalized image coordinates with an objectness score and class logits.
type GridBox struct {
	CX, CY, W, H float32 // normalized [0,1]
	Objectness   float32
	ClassScores  []float32
}

// YOLOHead is a single-scale grid detector (the "YOLO" of Table III): a
// small convolutional backbone followed by a 1×1 head predicting
// (objectness, cx, cy, w, h, classes...) per grid cell.
type YOLOHead struct {
	Backbone *Network
	Head     *Conv2D
	Classes  int
	// raw is the head output InferInto decodes; it belongs to this head.
	raw Tensor
}

// NewTinyYOLO builds the detector with deterministic weights. Three
// conv+pool stages reduce the input by 8×; the network is fully
// convolutional, so the input size inH × inW fixes no weight and is unused.
// The two arguments stay until the frozen benchmark stops passing them
// (ROADMAP item 7).
func NewTinyYOLO(inH, inW, classes int, seed int64) *YOLOHead {
	// Weight init draws from an explicit caller-provided seed, never the
	// global math/rand source (TestDeterminism/kernels/yolo-int8).
	rng := rand.New(rand.NewSource(seed))
	backbone := &Network{Layers: []Layer{
		NewConv2D(1, 8, 3, 1, 1, true, rng),
		MaxPool2{},
		NewConv2D(8, 16, 3, 1, 1, true, rng),
		MaxPool2{},
		NewConv2D(16, 32, 3, 1, 1, true, rng),
		MaxPool2{},
	}}
	per := 5 + classes
	head := NewConv2D(32, per, 1, 1, 0, false, rng)
	return &YOLOHead{
		Backbone: backbone,
		Head:     head,
		Classes:  classes,
	}
}

// Infer runs the full forward pass and decodes the grid into row-major
// cell slots.
func (y *YOLOHead) Infer(in *Tensor) []GridBox {
	return y.InferInto(in, nil)
}

// InferInto is the reusing variant of Infer: the forward pass writes every
// activation into buffers the head and its backbone own, and the decode
// writes into out's slots, keeping their ClassScores backing arrays. Pass the
// previous cycle's slice back in and a warm steady state allocates nothing.
// Results are byte-identical to a fresh Infer.
func (y *YOLOHead) InferInto(in *Tensor, out []GridBox) []GridBox {
	feat := y.Backbone.ForwardPooled(in)
	raw := y.raw.resize(y.Head.OutShape(feat.C, feat.H, feat.W))
	y.Head.ForwardInto(feat, raw)
	n := raw.H * raw.W
	if cap(out) < n {
		grown := make([]GridBox, n)
		copy(grown, out) // keep already-allocated ClassScores backing arrays
		out = grown
	}
	out = out[:n]
	for gy := 0; gy < raw.H; gy++ {
		for gx := 0; gx < raw.W; gx++ {
			y.decodeCell(raw, gy, gx, &out[gy*raw.W+gx])
		}
	}
	return out
}

// decodeCell decodes one grid cell into b, reusing its ClassScores array
// when large enough.
func (y *YOLOHead) decodeCell(raw *Tensor, gy, gx int, b *GridBox) {
	b.Objectness = Sigmoid(raw.At(0, gy, gx))
	b.CX = (float32(gx) + Sigmoid(raw.At(1, gy, gx))) / float32(raw.W)
	b.CY = (float32(gy) + Sigmoid(raw.At(2, gy, gx))) / float32(raw.H)
	b.W = Sigmoid(raw.At(3, gy, gx))
	b.H = Sigmoid(raw.At(4, gy, gx))
	if cap(b.ClassScores) < y.Classes {
		b.ClassScores = make([]float32, y.Classes)
	}
	b.ClassScores = b.ClassScores[:y.Classes]
	for c := 0; c < y.Classes; c++ {
		b.ClassScores[c] = Sigmoid(raw.At(5+c, gy, gx))
	}
}
