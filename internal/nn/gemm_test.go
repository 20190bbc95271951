package nn

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sov/internal/parallel"
)

// refQConv is the trusted scalar reference: per output pixel, the exact
// per-tap accumulation with zero-point subtraction over the taps that fall
// inside the input, requantized. The production backend must match it bit
// for bit.
func refQConv(c *QConv2D, in *QTensor) []int8 {
	oc, oh, ow := c.OutShape(in.C, in.H, in.W)
	out := make([]int8, oc*oh*ow)
	per := c.InC * c.K * c.K
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := c.Bias[o]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						for kx := 0; kx < c.K; kx++ {
							iy := oy*c.Stride - c.Pad + ky
							ix := ox*c.Stride - c.Pad + kx
							if iy < 0 || iy >= in.H || ix < 0 || ix >= in.W {
								continue
							}
							w := int32(c.Weights[o*per+(ic*c.K+ky)*c.K+kx])
							acc += w * (int32(in.Data[(ic*in.H+iy)*in.W+ix]) - c.zeroIn)
						}
					}
				}
				out[(o*oh+oy)*ow+ox] = c.rq.apply(acc)
			}
		}
	}
	return out
}

// parityShapes sweeps odd widths, stride 2, border-heavy planes, short and
// odd dot products, planes that are not a multiple of the 4-column group or
// the 32-column block, and the four layers of the fleet's 32×32 detector.
var parityShapes = []struct {
	inC, outC, k, stride, pad, h, w int
	relu                            bool
}{
	{3, 4, 3, 1, 1, 8, 8, true},    // kd=27: short odd dot product
	{6, 5, 3, 1, 1, 12, 16, true},  // kd=54, P=192
	{6, 5, 3, 2, 1, 13, 9, false},  // stride 2, odd plane
	{6, 3, 3, 1, 0, 9, 17, true},   // no pad, odd width, OutC < panel height
	{16, 8, 3, 1, 1, 12, 12, true}, // kd=144: perception-layer shape
	{48, 4, 1, 1, 0, 11, 13, true}, // 1×1 kernel, deep
	{5, 7, 5, 2, 2, 11, 10, false}, // K=5, odd kd (pad lane live)
	{6, 5, 3, 1, 1, 4, 40, true},   // wide rows, every row touches a border
	{6, 5, 3, 1, 1, 16, 8, true},   // P=128: whole column blocks
	{6, 5, 3, 1, 1, 16, 7, false},  // P=112: groups straddle output rows
	{1, 4, 3, 1, 1, 10, 30, true},  // single input channel
	{4, 4, 4, 1, 2, 9, 21, true},   // even K, fat pad
	{4, 6, 4, 2, 3, 9, 21, false},  // even K, stride 2, pad > K/2
	{1, 8, 3, 1, 1, 32, 32, true},  // fleet L0
	{8, 16, 3, 1, 1, 16, 16, true}, // fleet L2
	{16, 32, 3, 1, 1, 8, 8, true},  // fleet L4
	{32, 7, 1, 1, 0, 4, 4, false},  // fleet head
	{3, 5, 3, 1, 1, 1, 1, true},    // 1-pixel plane: all border, three phantom columns
}

func parityConv(t *testing.T, idx int) (*QConv2D, *QTensor) {
	t.Helper()
	s := parityShapes[idx]
	rng := rand.New(rand.NewSource(int64(900 + idx)))
	conv := NewConv2D(s.inC, s.outC, s.k, s.stride, s.pad, s.relu, rng)
	qc := NewQConv2D(conv, ChooseQuantParams(-0.7, 0.9), ChooseQuantParams(-0.4, 1.1))
	return qc, randomQInput(rng, qc, s.h, s.w)
}

func randomQInput(rng *rand.Rand, qc *QConv2D, h, w int) *QTensor {
	in := NewQTensor(qc.InC, h, w, qc.InP)
	for i := range in.Data {
		in.Data[i] = int8(rng.Intn(256) - 128)
	}
	return in
}

// forwardPoisoned runs qc over in into an output pre-filled with a marker,
// so an element the kernel skips shows up as a mismatch.
func forwardPoisoned(qc *QConv2D, in *QTensor) []int8 {
	oc, oh, ow := qc.OutShape(in.C, in.H, in.W)
	out := NewQTensor(oc, oh, ow, qc.OutP)
	for i := range out.Data {
		out.Data[i] = 0x55
	}
	qc.ForwardInto(in, out)
	return out.Data
}

// TestQConvMatchesReference asserts bit-exact equality with the scalar
// reference over the shape sweep.
func TestQConvMatchesReference(t *testing.T) {
	for idx := range parityShapes {
		qc, in := parityConv(t, idx)
		if !eqInt8(forwardPoisoned(qc, in), refQConv(qc, in)) {
			t.Fatalf("shape %d %+v: output != reference", idx, parityShapes[idx])
		}
	}
}

// TestGEMMParityAcrossWorkers checks the output stays byte-identical when
// the column blocks fan out across a worker pool.
func TestGEMMParityAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, idx := range []int{4, 7} { // perception shape + border-heavy shape
		qc, in := parityConv(t, idx)
		want := refQConv(qc, in)
		for _, workers := range []int{1, 3, 8} {
			parallel.SetWorkers(workers)
			if !eqInt8(forwardPoisoned(qc, in), want) {
				t.Fatalf("shape %d workers %d: output != reference", idx, workers)
			}
		}
	}
}

// TestQConvShapeChangeRebuildsTables forwards one layer over a sequence of
// input shapes: the padded buffer's border and the tap table are per shape,
// so every change must rebuild them (and a repeat must not), including a
// shrink that reuses the larger buffer's storage.
func TestQConvShapeChangeRebuildsTables(t *testing.T) {
	qc, _ := parityConv(t, 4)
	rng := rand.New(rand.NewSource(77))
	var taps []int32
	for i, hw := range [][2]int{{12, 12}, {12, 12}, {7, 19}, {12, 12}, {3, 3}, {20, 5}} {
		in := randomQInput(rng, qc, hw[0], hw[1])
		if !eqInt8(forwardPoisoned(qc, in), refQConv(qc, in)) {
			t.Fatalf("step %d input %dx%d: output != reference", i, hw[0], hw[1])
		}
		if qc.gemm.inH != hw[0] || qc.gemm.inW != hw[1] {
			t.Fatalf("step %d: tables built for %dx%d, want %dx%d", i, qc.gemm.inH, qc.gemm.inW, hw[0], hw[1])
		}
		if i == 1 && !slices.Equal(taps, qc.gemm.taps) {
			t.Fatal("same shape twice changed the tap table")
		}
		if i == 2 && slices.Equal(taps, qc.gemm.taps) {
			t.Fatal("shape change left the tap table as it was")
		}
		taps = append(taps[:0], qc.gemm.taps...)
	}
}

// TestQConvRejectsBadShapes covers the constructor's and ForwardInto's
// argument checks: each case must panic with a message that names what
// was wrong, not fall through to a make with a non-positive plane.
func TestQConvRejectsBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := ChooseQuantParams(-1, 1)
	forward := func(k, pad, h, w int) func() {
		return func() {
			qc := NewQConv2D(NewConv2D(2, 3, k, 1, pad, true, rng), p, p)
			qc.ForwardInto(NewQTensor(2, h, w, p), NewQTensor(3, 1, 1, p))
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
		want string
	}{
		{"stride 0", func() { NewQConv2D(&Conv2D{InC: 1, OutC: 1, K: 3, Stride: 0}, p, p) }, "Stride=0"},
		{"stride -1", func() { NewQConv2D(&Conv2D{InC: 1, OutC: 1, K: 3, Stride: -1}, p, p) }, "Stride=-1"},
		{"kernel 0", func() { NewQConv2D(&Conv2D{InC: 1, OutC: 1, K: 0, Stride: 1}, p, p) }, "K=0"},
		{"input shorter than kernel", forward(3, 0, 2, 8), "qconv3x3/2->3: input 2x8 with pad 0 is smaller than the 3x3 kernel"},
		{"input narrower than kernel", forward(5, 1, 8, 2), "qconv5x5/2->3: input 8x2 with pad 1 is smaller than the 5x5 kernel"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not contain %q", msg, tc.want)
				}
			}()
			tc.run()
		})
	}
}

// FuzzQConvMatchesReference draws the layer shape, stride, pad, zero point
// and every weight and activation from the input bytes and compares the
// backend with refQConv.
func FuzzQConvMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, inC, outC, k, stride, pad, h, w uint8, zero int8, data []byte) {
		s := struct{ inC, outC, k, stride, pad, h, w int }{
			1 + int(inC)%8, 1 + int(outC)%9, 1 + int(k)%5, 1 + int(stride)%3, int(pad) % 4, 1 + int(h)%20, 1 + int(w)%20,
		}
		if s.h+2*s.pad < s.k || s.w+2*s.pad < s.k {
			t.Skip("input smaller than kernel")
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		conv := &Conv2D{InC: s.inC, OutC: s.outC, K: s.k, Stride: s.stride, Pad: s.pad, ReLU: next()&1 == 1}
		conv.Weights = make([]float32, s.outC*s.inC*s.k*s.k)
		for i := range conv.Weights {
			conv.Weights[i] = float32(int8(next())) / 127
		}
		conv.Bias = make([]float32, s.outC)
		for i := range conv.Bias {
			conv.Bias[i] = float32(int8(next())) / 16
		}
		inP := QuantParams{Scale: 0.02, Zero: int32(zero)}
		qc := NewQConv2D(conv, inP, ChooseQuantParams(-3, 3))
		in := NewQTensor(s.inC, s.h, s.w, inP)
		for i := range in.Data {
			in.Data[i] = int8(next())
		}
		if !eqInt8(forwardPoisoned(qc, in), refQConv(qc, in)) {
			t.Fatalf("shape %+v zero %d: output != reference", s, zero)
		}
	})
}

// TestQFCSWARParity checks the pair-dot QFC against a scalar widened dot
// product over odd and even widths, including the ≤3-row tail.
func TestQFCSWARParity(t *testing.T) {
	for _, shape := range []struct{ in, out int }{
		{256, 128}, {255, 127}, {7, 9}, {1, 1}, {17, 6}, {64, 3},
	} {
		rng := rand.New(rand.NewSource(int64(1700 + shape.in)))
		fc := NewFC(shape.in, shape.out, true, rng)
		qf := NewQFC(fc, ChooseQuantParams(-0.6, 0.8), ChooseQuantParams(-0.2, 1.3))
		in := NewQTensor(shape.in, 1, 1, qf.InP)
		for i := range in.Data {
			in.Data[i] = int8(rng.Intn(256) - 128)
		}
		w, _ := quantizeWeights(fc.Weights)
		want := make([]int8, shape.out)
		for o := 0; o < shape.out; o++ {
			acc := qf.foldedBias[o]
			for i, v := range in.Data {
				acc += int32(w[o*shape.in+i]) * int32(v)
			}
			want[o] = qf.rq.apply(acc)
		}
		out := NewQTensor(shape.out, 1, 1, qf.OutP)
		qf.ForwardInto(in, out)
		if !eqInt8(out.Data, want) {
			t.Fatalf("qfc %dx%d: SWAR output != scalar reference", shape.in, shape.out)
		}
	}
}

func eqInt8(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
