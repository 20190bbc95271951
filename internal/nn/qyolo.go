package nn

// QYOLOHead is the fixed-point grid detector: the TinyYOLO backbone and
// 1×1 head run entirely in int8 (int32 accumulators, fused requantization),
// and the decode evaluates sigmoid by 256-entry table lookup over the head's
// output codes instead of exponentials. Boxes land within a small, tested
// error budget of the float path (DESIGN.md §8).
type QYOLOHead struct {
	Backbone *QNetwork
	Head     *QConv2D
	Classes  int
	lut      *SigmoidLUT
	// acts holds one pair of activation buffers per batch image and raws
	// each image's head output. Both belong to this head: a result is valid
	// until the next forward call, and ShareClone starts the clone empty.
	acts [][2]QTensor
	raws []QTensor
}

// QuantizeYOLO converts a float YOLO head into its fixed-point counterpart,
// calibrating every activation range on the given representative input. The
// float model is left untouched.
func QuantizeYOLO(y *YOLOHead, calib *Tensor) *QYOLOHead {
	qb := QuantizeNetwork(y.Backbone, calib)
	feat := y.Backbone.Forward(calib)
	raw := y.Head.Forward(feat)
	lo, hi := tensorRange(raw)
	rawP := ChooseQuantParams(lo, hi)
	head := NewQConv2D(y.Head, qb.OutParams(), rawP)
	return &QYOLOHead{
		Backbone: qb,
		Head:     head,
		Classes:  y.Classes,
		lut:      NewSigmoidLUT(rawP),
	}
}

// LUT exposes the head-output sigmoid table (the detection decode uses it
// to threshold and score cells in the int8 domain).
func (y *QYOLOHead) LUT() *SigmoidLUT { return y.lut }

// ForwardRaw runs the quantized forward pass and returns the raw int8 grid
// tensor, which belongs to the head and is valid until the next forward
// call. The input quantization (float image → int8 codes) is the only
// non-integer step on the path.
func (y *QYOLOHead) ForwardRaw(in *Tensor) *QTensor {
	y.grow(1)
	return y.forwardHead(y.Backbone.ForwardPooled(in), &y.raws[0])
}

// forwardHead runs the 1×1 head over feat into raw and returns raw.
func (y *QYOLOHead) forwardHead(feat, raw *QTensor) *QTensor {
	oc, oh, ow := y.Head.OutShape(feat.C, feat.H, feat.W)
	y.Head.ForwardInto(feat, raw.resize(oc, oh, ow, y.Head.OutParams()))
	return raw
}

// grow gives the head buffers for a batch of n images (first use, or a
// larger batch; the buffers' storage grows on their first forward).
func (y *QYOLOHead) grow(n int) {
	for len(y.raws) < n {
		y.acts = append(y.acts, [2]QTensor{})
		y.raws = append(y.raws, QTensor{})
	}
}
