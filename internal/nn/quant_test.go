package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sov/internal/parallel"
)

// calibInput builds a deterministic image-like input in [0,1].
func calibInput(c, h, w int, seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := NewTensor(c, h, w)
	for i := range t.Data {
		t.Data[i] = rng.Float32()
	}
	return t
}

// Classifier is the conv trunk + GAP + FC stack the quantizer tests run: it
// covers every float layer kind QuantizeNetwork converts.
type Classifier struct {
	Net *Network
}

// NewClassifier builds the stack with deterministic weights for inH×inW
// crops (the spatial size only matters to the caller's inputs).
func NewClassifier(inH, inW, classes int, seed int64) *Classifier {
	rng := rand.New(rand.NewSource(seed))
	return &Classifier{Net: &Network{Layers: []Layer{
		NewConv2D(1, 8, 3, 1, 1, true, rng),
		MaxPool2{},
		NewConv2D(8, 16, 3, 1, 1, true, rng),
		MaxPool2{},
		GlobalAvgPool{},
		NewFC(16, classes, false, rng),
	}}}
}

func TestQuantParamsRoundTrip(t *testing.T) {
	p := ChooseQuantParams(-0.8, 1.6)
	quantize := func(v float32) int8 {
		in, q := NewTensor(1, 1, 1), NewQTensor(1, 1, 1, p)
		in.Data[0] = v
		QuantizeTensorInto(q, in)
		return q.Data[0]
	}
	if got := p.Dequantize(quantize(0)); got != 0 {
		t.Fatalf("zero does not survive the round trip: %g", got)
	}
	for _, v := range []float32{-0.8, -0.3, 0, 0.41, 1.6} {
		q := quantize(v)
		back := p.Dequantize(q)
		if d := math.Abs(float64(back - v)); d > float64(p.Scale)/2+1e-6 {
			t.Fatalf("round trip of %g -> %d -> %g off by %g (> scale/2 = %g)", v, q, back, d, p.Scale/2)
		}
	}
}

func TestRequantMatchesFloatScaling(t *testing.T) {
	for _, m := range []float64{0.9, 0.125, 0.003, 1.7} {
		rq := newRequant(m, 3, false)
		for acc := int32(-5000); acc <= 5000; acc += 7 {
			want := int32(math.Round(float64(acc)*m)) + 3
			if want > 127 {
				want = 127
			}
			if want < -128 {
				want = -128
			}
			got := int32(rq.apply(acc))
			// The 31-bit mantissa can land one code off exactly at .5
			// boundaries; anything further is a logic error.
			if d := got - want; d < -1 || d > 1 {
				t.Fatalf("requant(%d)×%g = %d, want %d", acc, m, got, want)
			}
		}
	}
}

// refRequant is requantization written the way it first shipped, one
// rounding branch per sign: the oracle requant.apply's branch-free formula
// is held to exactly, and the reference the conv and FC parity tests build
// their expected bytes with.
func refRequant(r requant, acc int32) int8 {
	p := int64(acc) * int64(r.mult)
	half := int64(1) << (r.shift - 1)
	if p >= 0 {
		p = (p + half) >> r.shift
	} else {
		p = -((-p + half) >> r.shift) // round half away from zero, sign-symmetric
	}
	q := int32(p) + r.zero
	if r.relu && q < r.zero {
		q = r.zero
	}
	return satInt8(q)
}

// TestRequantMatchesReference holds apply to refRequant code for code on
// every shift × relu × zero point, over the accumulators where rounding
// and saturation turn (0, ±1, each side of ±half and of ±3·half with a unit
// multiplier, the int32 extremes) and a seeded random sweep.
func TestRequantMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	mults := []int32{1, 3, 1 << 30, 1<<30 + 1, 0x5555_5555, math.MaxInt32}
	for shift := uint(1); shift <= 62; shift++ {
		half := int64(1) << (shift - 1)
		var accs []int32
		for _, v := range []int64{0, 1, half, 3 * half, math.MaxInt32} {
			for _, d := range []int64{-1, 0, 1} {
				for _, sign := range []int64{1, -1} {
					if a := sign * (v + d); a >= math.MinInt32 && a <= math.MaxInt32 {
						accs = append(accs, int32(a))
					}
				}
			}
		}
		accs = append(accs, math.MinInt32)
		for i := 0; i < 64; i++ {
			accs = append(accs, int32(rng.Uint32()))
		}
		for _, mult := range mults {
			for _, relu := range []bool{false, true} {
				for _, zero := range []int32{-128, -1, 0, 3, 127} {
					r := requant{mult: mult, shift: shift, zero: zero, relu: relu}
					for _, acc := range accs {
						if got, want := r.apply(acc), refRequant(r, acc); got != want {
							t.Fatalf("%+v apply(%d) = %d, reference %d", r, acc, got, want)
						}
					}
				}
			}
		}
	}
}

// TestQConvMatchesFloatConv: the fused int8 convolution must track the float
// kernel within the quantization step of its output scale, at every output
// position (borders included — the zero-padding semantics must be exact).
func TestQConvMatchesFloatConv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []struct{ k, stride, pad int }{{3, 1, 1}, {1, 1, 0}, {3, 2, 1}} {
		conv := NewConv2D(4, 8, cfg.k, cfg.stride, cfg.pad, true, rng)
		in := calibInput(4, 20, 24, 7)
		ref := conv.Forward(in)

		inP := ChooseQuantParams(0, 1)
		lo, hi := tensorRange(ref)
		q := NewQConv2D(conv, inP, ChooseQuantParams(lo, hi))
		qin := NewQTensor(4, 20, 24, inP)
		QuantizeTensorInto(qin, in)
		qout := q.Forward(qin)

		// Quant noise: half an input LSB per tap propagated through the
		// kernel's weights, plus weight LSB and output rounding — 5 output
		// LSBs covers every kernel shape in use (DESIGN.md §8).
		budget := float64(q.OutP.Scale) * 5
		var worst float64
		for i := range ref.Data {
			d := math.Abs(float64(q.OutP.Dequantize(qout.Data[i]) - ref.Data[i]))
			if d > worst {
				worst = d
			}
		}
		if worst > budget {
			t.Errorf("k=%d s=%d p=%d: max |qconv - conv| = %g exceeds budget %g",
				cfg.k, cfg.stride, cfg.pad, worst, budget)
		}
	}
}

func TestQFCMatchesFloatFC(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fc := NewFC(64, 16, true, rng)
	in := calibInput(64, 1, 1, 9)
	ref := fc.Forward(in)

	inP := ChooseQuantParams(0, 1)
	lo, hi := tensorRange(ref)
	q := NewQFC(fc, inP, ChooseQuantParams(lo, hi))
	qin := NewQTensor(64, 1, 1, inP)
	QuantizeTensorInto(qin, in)
	qout := NewQTensor(16, 1, 1, q.OutP)
	q.ForwardInto(qin, qout)

	budget := float64(q.OutP.Scale) * 3
	for i := range ref.Data {
		if d := math.Abs(float64(q.OutP.Dequantize(qout.Data[i]) - ref.Data[i])); d > budget {
			t.Errorf("fc[%d]: |q - float| = %g exceeds budget %g", i, d, budget)
		}
	}
}

// TestQuantizedNetworkTracksFloat runs the classifier trunk quantized
// end-to-end — no float round-trips between layers — and checks the final
// activations stay within the documented budget of the float stack.
func TestQuantizedNetworkTracksFloat(t *testing.T) {
	cl := NewClassifier(32, 32, 4, 42)
	calib := calibInput(1, 32, 32, 3)
	qn := QuantizeNetwork(cl.Net, calib)

	probe := calibInput(1, 32, 32, 77)
	ref := cl.Net.Forward(probe)

	qout := qn.ForwardPooled(probe)

	outP := qn.OutParams()
	// Accumulated over 6 layers; the documented end-to-end budget is 6
	// output LSBs (DESIGN.md §8).
	budget := float64(outP.Scale) * 6
	for i := range ref.Data {
		if d := math.Abs(float64(outP.Dequantize(qout.Data[i]) - ref.Data[i])); d > budget {
			t.Errorf("logit[%d]: |q - float| = %g exceeds budget %g", i, d, budget)
		}
	}
}

// TestQuantizeNetworkFoldsPools checks each max pool lands in the conv
// before it, and that a pool with no unpooled conv to fold into panics
// instead of being dropped.
func TestQuantizeNetworkFoldsPools(t *testing.T) {
	cl := NewClassifier(32, 32, 4, 42)
	qn := QuantizeNetwork(cl.Net, calibInput(1, 32, 32, 3))
	if len(qn.Layers) != 4 || !qn.Layers[0].(*QConv2D).Pool || !qn.Layers[1].(*QConv2D).Pool {
		t.Fatalf("conv/pool/conv/pool/gap/fc quantized to %d layers, want two pooled convs, gap, fc", len(qn.Layers))
	}
	rng := rand.New(rand.NewSource(3))
	for name, layers := range map[string][]Layer{
		"leading pool": {MaxPool2{}, NewConv2D(1, 2, 3, 1, 1, true, rng)},
		"two pools":    {NewConv2D(1, 2, 3, 1, 1, true, rng), MaxPool2{}, MaxPool2{}},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "max pool") {
					t.Fatalf("panic %q, want one about the max pool", msg)
				}
			}()
			QuantizeNetwork(&Network{Layers: layers}, calibInput(1, 16, 16, 5))
		})
	}
}

// TestQYOLOTracksFloatDecode: quantized inference must reproduce the float
// grid decode within the detection accuracy budget — objectness within 0.05
// absolute, box centers within half a grid cell.
func TestQYOLOTracksFloatDecode(t *testing.T) {
	y := NewTinyYOLO(48, 64, 3, 21)
	calib := calibInput(1, 48, 64, 13)
	qy := QuantizeYOLO(y, calib)

	probe := calibInput(1, 48, 64, 99)
	ref := y.Infer(probe)
	raw := qy.ForwardRaw(probe)
	if len(ref) != raw.H*raw.W {
		t.Fatalf("cell count %d != %d", raw.H*raw.W, len(ref))
	}
	lut := qy.LUT()
	cellW := 1 / float32(raw.W)
	cellH := 1 / float32(raw.H)
	for i := range ref {
		gy, gx := i/raw.W, i%raw.W
		obj := lut.At(raw.At(0, gy, gx))
		cx := (float32(gx) + lut.At(raw.At(1, gy, gx))) / float32(raw.W)
		cy := (float32(gy) + lut.At(raw.At(2, gy, gx))) / float32(raw.H)
		if d := math.Abs(float64(obj - ref[i].Objectness)); d > 0.05 {
			t.Fatalf("cell %d objectness off by %g", i, d)
		}
		if d := math.Abs(float64(cx - ref[i].CX)); d > float64(cellW)/2 {
			t.Fatalf("cell %d cx off by %g", i, d)
		}
		if d := math.Abs(float64(cy - ref[i].CY)); d > float64(cellH)/2 {
			t.Fatalf("cell %d cy off by %g", i, d)
		}
	}
}

// TestQuantForwardPooledZeroAlloc owns the owned-buffer contract: a warm
// quantized forward pass must not allocate. The 5-class head leaves one
// output row past the FC's quad sweep, so QFC.swarRow runs too.
// The gate names its worker count instead of inheriting the host's: with
// more than one worker each layer's fan-out allocates its closures; the {4}
// leg joins this gate with ROADMAP item 4's job descriptors.
func TestQuantForwardPooledZeroAlloc(t *testing.T) {
	prev := parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	calib := calibInput(1, 32, 32, 3)
	probe := calibInput(1, 32, 32, 8)
	for _, classes := range []int{4, 5} {
		qn := QuantizeNetwork(NewClassifier(32, 32, classes, 42).Net, calib)
		run := func() { qn.ForwardPooled(probe) }
		run() // grow the activation buffers
		if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
			t.Errorf("warm quantized forward pass of a %d-class head allocates %.1f times per run, want 0", classes, allocs)
		}
	}
}
