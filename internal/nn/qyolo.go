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
	GridH    int
	GridW    int
	inC      int
	inH      int
	inW      int
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
		GridH:    y.GridH,
		GridW:    y.GridW,
		inC:      1, inH: y.inH, inW: y.inW,
		lut: NewSigmoidLUT(rawP),
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

// Infer runs the fixed-point forward pass and decodes every grid cell.
func (y *QYOLOHead) Infer(in *Tensor) []GridBox {
	return y.InferInto(in, nil)
}

// InferInto is the reusing variant of Infer: pass the previous cycle's slice
// back in and a warm steady state allocates nothing beyond the decode
// slots' first-time ClassScores arrays.
func (y *QYOLOHead) InferInto(in *Tensor, out []GridBox) []GridBox {
	raw := y.ForwardRaw(in)
	n := raw.H * raw.W
	if cap(out) < n {
		grown := make([]GridBox, n)
		copy(grown, out) // keep already-allocated ClassScores backing arrays
		out = grown
	}
	out = out[:n]
	for gy := 0; gy < raw.H; gy++ {
		for gx := 0; gx < raw.W; gx++ {
			y.decodeCellQ(raw, gy, gx, &out[gy*raw.W+gx])
		}
	}
	PutQTensor(raw)
	return out
}

// decodeCellQ decodes one grid cell from its int8 codes via the sigmoid
// table.
//
//sov:hotpath
func (y *QYOLOHead) decodeCellQ(raw *QTensor, gy, gx int, b *GridBox) {
	lut := y.lut
	b.Objectness = lut.At(raw.At(0, gy, gx))
	b.CX = (float32(gx) + lut.At(raw.At(1, gy, gx))) / float32(raw.W)
	b.CY = (float32(gy) + lut.At(raw.At(2, gy, gx))) / float32(raw.H)
	b.W = lut.At(raw.At(3, gy, gx))
	b.H = lut.At(raw.At(4, gy, gx))
	if cap(b.ClassScores) < y.Classes {
		//sovlint:ignore hotalloc first-time slot growth; steady state reuses the caller's ClassScores arrays
		b.ClassScores = make([]float32, y.Classes)
	}
	b.ClassScores = b.ClassScores[:y.Classes]
	for c := 0; c < y.Classes; c++ {
		b.ClassScores[c] = lut.At(raw.At(5+c, gy, gx))
	}
}

// TotalFLOPs mirrors the float head's MAC estimate (the work count is
// unchanged; only the arithmetic width shrinks).
func (y *QYOLOHead) TotalFLOPs() int64 {
	var f int64
	c, h, w := y.inC, y.inH, y.inW
	for _, l := range y.Backbone.Layers {
		switch t := l.(type) {
		case *QConv2D:
			oc, oh, ow := t.OutShape(c, h, w)
			f += int64(oc) * int64(oh) * int64(ow) * int64(t.InC) * int64(t.K*t.K) * 2
		}
		c, h, w = l.OutShape(c, h, w)
	}
	oc, oh, ow := y.Head.OutShape(c, h, w)
	f += int64(oc) * int64(oh) * int64(ow) * int64(y.Head.InC) * int64(y.Head.K*y.Head.K) * 2
	return f
}
