package nn

import "fmt"

// QLayer is one stage of a quantized network. Layers consume and produce
// int8 tensors directly — there is no float round-trip between stages; the
// requantization from the int32 accumulator domain to the next layer's
// int8 domain is fused into each kernel.
type QLayer interface {
	// ForwardInto computes the layer output into out, which must have the
	// layer's OutShape and OutParams. Every output element is written.
	ForwardInto(in, out *QTensor)
	OutShape(c, h, w int) (int, int, int)
	// OutParams is the quantization of the layer's output tensor.
	OutParams() QuantParams
	Name() string
}

// ceilDiv returns ceil(a/b) for non-negative a, positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// QConv2D is the fused int8 convolution: conv + bias + ReLU + requantize in
// one pass, for every shape, through the im2col + triple-dot GEMM backend
// (gemm.go). Accumulation is exact integer arithmetic throughout.
type QConv2D struct {
	InC, OutC int
	K         int
	Stride    int
	Pad       int
	Weights   []int8  // [outC][inC][K][K], symmetric per-tensor
	Bias      []int32 // accumulator domain (inScale × weightScale)
	InP, OutP QuantParams
	// Pool fuses a following 2×2 stride-2 max pool: the layer writes the
	// pooled plane and the full-resolution activation never exists.
	// QuantizeNetwork sets it when it folds a MaxPool2 into the conv.
	Pool   bool
	rq     requant
	zeroIn int32
	gemm   gemmState
}

// NewQConv2D quantizes a float convolution for the given input/output
// activation quantizations.
func NewQConv2D(c *Conv2D, in, out QuantParams) *QConv2D {
	if c.K < 1 || c.Stride < 1 {
		panic(fmt.Sprintf("nn: qconv %d->%d needs K >= 1 and Stride >= 1, got K=%d Stride=%d", c.InC, c.OutC, c.K, c.Stride))
	}
	w, ws := quantizeWeights(c.Weights)
	q := &QConv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		Weights: w, InP: in, OutP: out,
		zeroIn: in.Zero,
	}
	accScale := in.Scale * ws
	q.Bias = quantizeBias(c.Bias, accScale)
	q.rq = newRequant(float64(accScale)/float64(out.Scale), out.Zero, c.ReLU)
	q.initGEMM()
	return q
}

// Name implements QLayer.
func (c *QConv2D) Name() string { return fmt.Sprintf("qconv%dx%d/%d->%d", c.K, c.K, c.InC, c.OutC) }

// OutShape implements QLayer.
func (c *QConv2D) OutShape(_, h, w int) (int, int, int) {
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	if c.Pool {
		return c.OutC, oh / 2, ow / 2
	}
	return c.OutC, oh, ow
}

// OutParams implements QLayer.
func (c *QConv2D) OutParams() QuantParams { return c.OutP }

// Forward allocates the output and runs the kernel (test convenience; the
// hot path is ForwardInto over the network's own buffers).
func (c *QConv2D) Forward(in *QTensor) *QTensor {
	oc, oh, ow := c.OutShape(in.C, in.H, in.W)
	out := NewQTensor(oc, oh, ow, c.OutP)
	c.ForwardInto(in, out)
	return out
}

// ForwardInto implements QLayer. Column blocks of the GEMM are independent
// exact integer work units, so the output is byte-identical for any worker
// count.
func (c *QConv2D) ForwardInto(in, out *QTensor) {
	if in.C != c.InC {
		panic(fmt.Sprintf("nn: qconv input channels %d != %d", in.C, c.InC))
	}
	if in.H+2*c.Pad < c.K || in.W+2*c.Pad < c.K {
		panic(fmt.Sprintf("nn: qconv%dx%d/%d->%d: input %dx%d with pad %d is smaller than the %dx%d kernel", c.K, c.K, c.InC, c.OutC, in.H, in.W, c.Pad, c.K, c.K))
	}
	oc, oh, ow := c.OutShape(in.C, in.H, in.W)
	if out.C != oc || out.H != oh || out.W != ow {
		panic(fmt.Sprintf("nn: qconv output shape %dx%dx%d != %dx%dx%d", out.C, out.H, out.W, oc, oh, ow))
	}
	c.forwardGEMM(in, out)
}

// QGlobalAvgPool averages each channel in the integer domain (rounded
// division by the pixel count); parameters pass through unchanged.
type QGlobalAvgPool struct {
	P QuantParams
}

// Name implements QLayer.
func (QGlobalAvgPool) Name() string { return "qgap" }

// OutShape implements QLayer.
func (QGlobalAvgPool) OutShape(c, _, _ int) (int, int, int) { return c, 1, 1 }

// OutParams implements QLayer.
func (p QGlobalAvgPool) OutParams() QuantParams { return p.P }

// ForwardInto implements QLayer.
func (p QGlobalAvgPool) ForwardInto(in, out *QTensor) {
	if out.C != in.C || out.H != 1 || out.W != 1 {
		panic(fmt.Sprintf("nn: qgap output shape %dx%dx%d != %dx1x1", out.C, out.H, out.W, in.C))
	}
	n := int32(in.H * in.W)
	for c := 0; c < in.C; c++ {
		out.Data[c] = qgapChannel(in, c, n)
	}
}

// qgapChannel sums one channel and divides with round-half-away-from-zero.
func qgapChannel(in *QTensor, c int, n int32) int8 {
	var sum int32
	for _, v := range in.Data[c*in.H*in.W : (c+1)*in.H*in.W] {
		sum += int32(v)
	}
	if sum >= 0 {
		return satInt8((2*sum + n) / (2 * n))
	}
	return satInt8(-((2*(-sum) + n) / (2 * n)))
}

// QFC is the fused int8 fully-connected layer: dot product + bias + ReLU +
// requantize, with the zero-point folded into the bias (every input element
// is always valid, so the fold is exact everywhere). The dot products run as
// SWAR triple-dots (swar.go): three MACs per 64-bit multiply against weight
// rows packed once at construction.
type QFC struct {
	In, Out   int
	InP, OutP QuantParams
	rq        requant
	// wpack holds each weight row as nw reversed biased triple words;
	// rowConst folds the bias and the constant terms of the triple-dot
	// identity, so the kernel only subtracts 128·Σu at the end.
	nw       int
	wpack    []uint64
	rowConst []int64
	// xpack holds the packed input triples (grown on first use, reused
	// forever).
	xpack []uint64
}

// NewQFC quantizes a float FC layer for the given activation quantizations.
func NewQFC(f *FC, in, out QuantParams) *QFC {
	w, ws := quantizeWeights(f.Weights)
	q := &QFC{In: f.In, Out: f.Out, InP: in, OutP: out}
	accScale := in.Scale * ws
	bias := quantizeBias(f.Bias, accScale)
	q.nw = swarWords(f.In)
	q.wpack = make([]uint64, f.Out*q.nw)
	q.rowConst = make([]int64, f.Out)
	for o := 0; o < f.Out; o++ {
		wsumB := packWeightTriplesInto(q.wpack[o*q.nw:(o+1)*q.nw], w[o*f.In:(o+1)*f.In])
		q.rowConst[o] = swarRowConst(bias[o], in.Zero, wsumB, q.nw)
	}
	q.rq = newRequant(float64(accScale)/float64(out.Scale), out.Zero, f.ReLU)
	return q
}

// Name implements QLayer.
func (f *QFC) Name() string { return fmt.Sprintf("qfc/%d->%d", f.In, f.Out) }

// OutShape implements QLayer.
func (f *QFC) OutShape(_, _, _ int) (int, int, int) { return f.Out, 1, 1 }

// OutParams implements QLayer.
func (f *QFC) OutParams() QuantParams { return f.OutP }

// ForwardInto implements QLayer. The int8 input row is packed into SWAR
// triple words once, then output rows are computed four at a time so every
// packed load feeds four weight rows and each 64-bit multiply retires three
// MACs.
func (f *QFC) ForwardInto(in, out *QTensor) {
	if len(in.Data) != f.In {
		panic(fmt.Sprintf("nn: qfc input %d != %d", len(in.Data), f.In))
	}
	if len(out.Data) != f.Out {
		panic(fmt.Sprintf("nn: qfc output %d != %d", len(out.Data), f.Out))
	}
	if cap(f.xpack) < f.nw {
		f.xpack = make([]uint64, f.nw)
	}
	xp := f.xpack[:f.nw]
	sumU := packTriplesInto(xp, in.Data)
	quads := f.Out / 4
	for q := 0; q < quads; q++ {
		f.swarRowQuad(xp, sumU, 4*q, out.Data)
	}
	f.swarTail(xp, sumU, 4*quads, out.Data)
}

// swarTail finishes the ≤3 output rows left over by the quad sweep.
func (f *QFC) swarTail(xp []uint64, sumU int64, o int, dst []int8) {
	for ; o < f.Out; o++ {
		dst[o] = f.swarRow(xp, sumU, o)
	}
}

// swarRowQuad computes four fused output elements against the packed input
// row: each packed load feeds four weight rows and every multiply retires
// three MACs via the triple-dot identity (swar.go), so both the load traffic
// and the multiply count per MAC fall to a third of the widened-int32
// sweep's.
func (f *QFC) swarRowQuad(xp []uint64, sumU int64, o int, dst []int8) {
	nw := f.nw
	r0 := f.wpack[o*nw : (o+1)*nw]
	r1 := f.wpack[(o+1)*nw : (o+2)*nw]
	r2 := f.wpack[(o+2)*nw : (o+3)*nw]
	r3 := f.wpack[(o+3)*nw : (o+4)*nw]
	xp = xp[:len(r0)]
	r1 = r1[:len(r0)]
	r2 = r2[:len(r0)]
	r3 = r3[:len(r0)]
	var a, b, c, d uint64
	for i, x := range xp {
		a += (x * r0[i]) >> swarShift
		b += (x * r1[i]) >> swarShift
		c += (x * r2[i]) >> swarShift
		d += (x * r3[i]) >> swarShift
	}
	base := -128 * sumU
	dst[o] = f.rq.apply(int32(f.rowConst[o] + base + int64(a)))
	dst[o+1] = f.rq.apply(int32(f.rowConst[o+1] + base + int64(b)))
	dst[o+2] = f.rq.apply(int32(f.rowConst[o+2] + base + int64(c)))
	dst[o+3] = f.rq.apply(int32(f.rowConst[o+3] + base + int64(d)))
}

// swarRow computes one fused output element by triple-dot (the ≤3 trailing
// rows of the quad sweep).
func (f *QFC) swarRow(xp []uint64, sumU int64, o int) int8 {
	row := f.wpack[o*f.nw : (o+1)*f.nw]
	xp = xp[:len(row)]
	var a uint64
	for i, x := range xp {
		a += (x * row[i]) >> swarShift
	}
	return f.rq.apply(int32(f.rowConst[o] - 128*sumU + int64(a)))
}

// QNetwork is an ordered stack of quantized layers with the input tensor's
// quantization.
type QNetwork struct {
	Layers   []QLayer
	InParams QuantParams
	// act is the pair of activation buffers ForwardPooled alternates
	// between; it belongs to this network alone (ShareClone starts empty).
	act [2]QTensor
}

// ForwardPooled quantizes in into the network's own buffer 1, then runs the
// stack with layer i writing into buffer i%2, so a warm steady state
// allocates nothing. The result belongs to the network and is valid until
// the next call.
func (n *QNetwork) ForwardPooled(in *Tensor) *QTensor {
	cur := n.act[1].resize(in.C, in.H, in.W, n.InParams)
	QuantizeTensorInto(cur, in)
	for i, l := range n.Layers {
		c, h, w := l.OutShape(cur.C, cur.H, cur.W)
		out := n.act[i%2].resize(c, h, w, l.OutParams())
		l.ForwardInto(cur, out)
		cur = out
	}
	return cur
}

// OutParams returns the quantization of the network's output tensor.
func (n *QNetwork) OutParams() QuantParams {
	if len(n.Layers) == 0 {
		return n.InParams
	}
	return n.Layers[len(n.Layers)-1].OutParams()
}

// QuantizeNetwork converts a float network into a fused int8 network.
// calib is a representative input: each activation's quantization is fitted
// to its observed range on the calibration pass (weights quantize
// symmetrically per tensor; biases land in the int32 accumulator domain).
// A MaxPool2 folds into the Conv2D before it (QConv2D.Pool); one anywhere
// else panics. The float network is left untouched.
func QuantizeNetwork(net *Network, calib *Tensor) *QNetwork {
	qn := &QNetwork{}
	lo, hi := tensorRange(calib)
	cur := ChooseQuantParams(lo, hi)
	qn.InParams = cur
	act := calib
	for _, l := range net.Layers {
		out := l.Forward(act)
		switch t := l.(type) {
		case *Conv2D:
			olo, ohi := tensorRange(out)
			op := ChooseQuantParams(olo, ohi)
			qn.Layers = append(qn.Layers, NewQConv2D(t, cur, op))
			cur = op
		case *FC:
			olo, ohi := tensorRange(out)
			op := ChooseQuantParams(olo, ohi)
			qn.Layers = append(qn.Layers, NewQFC(t, cur, op))
			cur = op
		case MaxPool2:
			// Pooling codes equals pooling real values (quantization is
			// monotonic), so the pool folds exactly into the conv before it.
			var qc *QConv2D
			if n := len(qn.Layers); n > 0 {
				qc, _ = qn.Layers[n-1].(*QConv2D)
			}
			if qc == nil || qc.Pool {
				panic("nn: a max pool quantizes only folded into the convolution before it")
			}
			qc.Pool = true
		case GlobalAvgPool:
			qn.Layers = append(qn.Layers, QGlobalAvgPool{P: cur})
		default:
			panic("nn: cannot quantize layer " + l.Name())
		}
		act = out
	}
	return qn
}
