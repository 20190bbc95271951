package nn

// Fixed-point quantization substrate (DESIGN.md §8). The paper's FPGA
// operating points exist because the perception kernels run as fixed-point
// dataflow pipelines on the Zynq; this file is the software counterpart:
// per-tensor affine int8 quantization with int32 accumulation and
// integer-only requantization between layers, so a quantized network never
// round-trips through float between stages. The arithmetic is exact integer
// math — byte-identical for any worker count by construction — and every
// per-frame buffer belongs to the network instance that writes it, so a warm
// quantized forward pass allocates nothing.

import (
	"fmt"
	"math"
)

// QuantParams is a per-tensor affine quantization: real = Scale*(q - Zero).
// Zero always lies in [-128, 127] so the real value 0 is exactly
// representable (padding and ReLU clamping depend on it).
type QuantParams struct {
	Scale float32
	Zero  int32
}

// Dequantize maps an int8 code back to its real value.
func (p QuantParams) Dequantize(q int8) float32 {
	return p.Scale * float32(int32(q)-p.Zero)
}

// ChooseQuantParams fits affine int8 parameters to the real range
// [min, max]. The range is widened to include 0 so the zero point is exact;
// a degenerate range quantizes to a unit scale around zero.
func ChooseQuantParams(min, max float32) QuantParams {
	if min > 0 {
		min = 0
	}
	if max < 0 {
		max = 0
	}
	if max-min < 1e-12 {
		return QuantParams{Scale: 1, Zero: 0}
	}
	scale := (max - min) / 255
	// Zero point: the integer code that represents real 0.
	zero := int32(roundf(-128 - min/scale))
	if zero < -128 {
		zero = -128
	}
	if zero > 127 {
		zero = 127
	}
	return QuantParams{Scale: scale, Zero: zero}
}

func roundf(v float32) float32 {
	return float32(math.Round(float64(v)))
}

func satInt8(q int32) int8 {
	if q < -128 {
		return -128
	}
	if q > 127 {
		return 127
	}
	return int8(q)
}

// QTensor is a CHW int8 tensor with its quantization parameters.
type QTensor struct {
	C, H, W int
	Data    []int8
	Params  QuantParams
}

// NewQTensor allocates a zero quantized tensor.
func NewQTensor(c, h, w int, p QuantParams) *QTensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: invalid qtensor shape %dx%dx%d", c, h, w))
	}
	return &QTensor{C: c, H: h, W: w, Data: make([]int8, c*h*w), Params: p}
}

// resize makes t a c×h×w tensor under p with unspecified contents, growing
// its storage only when it is too small, and returns it.
func (t *QTensor) resize(c, h, w int, p QuantParams) *QTensor {
	n := c * h * w
	if cap(t.Data) < n {
		//sovlint:ignore hotalloc first use or a larger shape; warm passes reuse the buffer
		t.Data = make([]int8, n)
	}
	t.C, t.H, t.W, t.Data, t.Params = c, h, w, t.Data[:n], p
	return t
}

// At returns element (c, y, x).
func (t *QTensor) At(c, y, x int) int8 { return t.Data[(c*t.H+y)*t.W+x] }

// QuantizeTensorInto fills q (which must match t's shape) with t quantized
// under q.Params. The zero-allocation entry point of the quantized path.
//
//sov:hotpath
func QuantizeTensorInto(q *QTensor, t *Tensor) {
	if q.C != t.C || q.H != t.H || q.W != t.W {
		panic(fmt.Sprintf("nn: quantize shape %dx%dx%d != %dx%dx%d", q.C, q.H, q.W, t.C, t.H, t.W))
	}
	inv := 1 / q.Params.Scale
	zero := q.Params.Zero
	for i, v := range t.Data {
		q.Data[i] = satInt8(zero + int32(roundf(v*inv)))
	}
}

// requant is an integer-only rescaling from the int32 accumulator domain to
// an output quantization: out = zero + round(acc * mult * 2^-shift). The
// multiplier/shift pair encodes the real ratio inScale*weightScale/outScale
// the way fixed-point inference stacks (and the Zynq dataflow pipelines) do,
// so the hot loops contain no floating-point operations at all.
type requant struct {
	mult  int32
	shift uint
	zero  int32
	// relu clamps the output at the zero point (real 0) when set, fusing
	// the activation into the requantization step.
	relu bool
}

// newRequant encodes the real multiplier m (> 0) as mult × 2^-shift with a
// 31-bit mantissa.
func newRequant(m float64, zero int32, relu bool) requant {
	if m <= 0 || math.IsInf(m, 0) || math.IsNaN(m) {
		panic(fmt.Sprintf("nn: invalid requant multiplier %g", m))
	}
	m0, exp := math.Frexp(m) // m = m0 * 2^exp, m0 in [0.5, 1)
	q := int64(math.Round(m0 * (1 << 31)))
	if q == 1<<31 {
		q >>= 1
		exp++
	}
	s := 31 - exp
	if s < 1 || s > 62 {
		panic(fmt.Sprintf("nn: requant multiplier %g out of fixed-point range", m))
	}
	return requant{mult: int32(q), shift: uint(s), zero: zero, relu: relu}
}

// apply rescales one accumulator to an int8 output code. The rounding is
// half away from zero, sign-symmetric: adding p>>63 (−1 for a negative
// product, 0 otherwise) before the arithmetic shift turns floor((p+half)/2^s)
// into −floor((−p+half)/2^s) for p < 0, so one branch-free expression covers
// both signs and the method stays under the inliner's budget (DESIGN.md §10).
//
//sov:hotpath
func (r requant) apply(acc int32) int8 {
	p := int64(acc) * int64(r.mult)
	p = (p + int64(1)<<(r.shift-1) + p>>63) >> r.shift
	q := int32(p) + r.zero
	if r.relu && q < r.zero {
		q = r.zero
	}
	return satInt8(q)
}

// quantizeWeights performs symmetric per-tensor weight quantization
// (zero = 0), returning the codes and the scale.
func quantizeWeights(w []float32) ([]int8, float32) {
	var maxAbs float32
	for _, v := range w {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	scale := maxAbs / 127
	out := make([]int8, len(w))
	inv := 1 / scale
	for i, v := range w {
		out[i] = satInt8(int32(roundf(v * inv)))
	}
	return out, scale
}

// quantizeBias maps float biases to the int32 accumulator domain
// (scale = inScale × weightScale, zero = 0).
func quantizeBias(b []float32, accScale float32) []int32 {
	out := make([]int32, len(b))
	inv := 1 / float64(accScale)
	for i, v := range b {
		out[i] = int32(math.Round(float64(v) * inv))
	}
	return out
}

// tensorRange returns the min/max over a float tensor's elements.
func tensorRange(t *Tensor) (min, max float32) {
	min, max = t.Data[0], t.Data[0]
	for _, v := range t.Data[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// SigmoidLUT tabulates sigmoid over all 256 int8 codes of a quantization —
// the fixed-point detection head evaluates its activations by table lookup
// instead of exponentials.
type SigmoidLUT struct {
	Table [256]float32
}

// NewSigmoidLUT builds the table for the given activation quantization.
func NewSigmoidLUT(p QuantParams) *SigmoidLUT {
	l := &SigmoidLUT{}
	for q := -128; q <= 127; q++ {
		l.Table[q+128] = Sigmoid(p.Dequantize(int8(q)))
	}
	return l
}

// At returns sigmoid(dequantize(q)).
//
//sov:hotpath
func (l *SigmoidLUT) At(q int8) float32 { return l.Table[int32(q)+128] }

// ThresholdCode returns the smallest int8 code whose sigmoid meets or
// exceeds thr, or 127 when none does — detection decode compares raw codes
// against it before touching the table.
func (l *SigmoidLUT) ThresholdCode(thr float32) int8 {
	for q := -128; q <= 127; q++ {
		if l.Table[q+128] >= thr {
			return int8(q)
		}
	}
	return 127
}
