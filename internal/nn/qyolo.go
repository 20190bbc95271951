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
// tensor, borrowed from the tensor pools — release it with PutQTensor. The
// input quantization (float image → int8 codes) is the only non-integer
// step on the path.
func (y *QYOLOHead) ForwardRaw(in *Tensor) *QTensor {
	qin := GetQTensor(in.C, in.H, in.W, y.Backbone.InParams)
	QuantizeTensorInto(qin, in)
	feat := y.Backbone.ForwardPooled(qin)
	oc, oh, ow := y.Head.OutShape(feat.C, feat.H, feat.W)
	raw := GetQTensor(oc, oh, ow, y.Head.OutParams())
	y.Head.ForwardInto(feat, raw)
	if feat != qin {
		PutQTensor(feat)
	}
	PutQTensor(qin)
	return raw
}
