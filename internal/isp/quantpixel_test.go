package isp

import (
	"math"
	"testing"

	"sov/internal/vision"
)

// qprocess runs the fixed-point chain into fresh buffers.
func qprocess(q *QuantPixelPipeline, in *vision.QImage) *vision.QImage {
	out, blur := vision.NewQImage(in.W, in.H), vision.NewQImage(in.W, in.H)
	q.ProcessInto(out, blur, in)
	return out
}

func renderTestFrame() *vision.Image {
	s := vision.Scene{Background: 7, BgDepth: 12, Boxes: []vision.Box{
		{X: -0.5, Y: 0, Z: 5, W: 1.2, H: 1.2, Texture: 3},
		{X: 1, Y: 0.2, Z: 8, W: 2, H: 1, Texture: 9},
	}}
	return s.Render(vision.DefaultIntrinsics(), 0)
}

// TestQuantPipelineTracksFloat runs the fixed-point chain against the float
// chain on a rendered frame. Budget (DESIGN.md §8): mean error within two
// 8-bit codes; max error 0.09, dominated by the gamma curve's steep slope
// near black, where one input code spans many output codes.
func TestQuantPipelineTracksFloat(t *testing.T) {
	in := renderTestFrame()
	ref := process(in)

	qout := qprocess(Quantized(), vision.QuantizeImage(in))

	var sum, worst float64
	for i := range ref.Pix {
		d := math.Abs(float64(float32(qout.Pix[i])/255 - ref.Pix[i]))
		sum += d
		if d > worst {
			worst = d
		}
	}
	if mean := sum / float64(len(ref.Pix)); mean > 2.0/255 {
		t.Errorf("mean |quant - float| = %g (budget %g)", mean, 2.0/255)
	}
	if worst > 0.09 {
		t.Errorf("max |quant - float| = %g (budget 0.09)", worst)
	}
}

// TestQuantPipelineZeroAlloc: the ProcessInto steady state must not allocate.
func TestQuantPipelineZeroAlloc(t *testing.T) {
	in := vision.QuantizeImage(renderTestFrame())
	qp := Quantized()
	out := vision.NewQImage(in.W, in.H)
	blur := vision.NewQImage(in.W, in.H)
	if allocs := testing.AllocsPerRun(20, func() { qp.ProcessInto(out, blur, in) }); allocs > 0 {
		t.Fatalf("warm fixed-point ISP pass allocates %.1f times per run, want 0", allocs)
	}
}

// TestPipelineZeroAlloc: the float ProcessInto must not allocate either.
func TestPipelineZeroAlloc(t *testing.T) {
	in := renderTestFrame()
	out := vision.NewImage(in.W, in.H)
	blur := vision.NewImage(in.W, in.H)
	if allocs := testing.AllocsPerRun(20, func() { ProcessInto(out, blur, in) }); allocs > 0 {
		t.Fatalf("warm float ISP pass allocates %.1f times per run, want 0", allocs)
	}
}

// TestQuantGammaTableMatchesFloat: every 8-bit code's gamma output must be
// the rounding of the float curve.
func TestQuantGammaTableMatchesFloat(t *testing.T) {
	qp := Quantized()
	for i := 0; i < 256; i++ {
		want := math.Pow(float64(i)/255, 1/2.2) * 255
		if d := math.Abs(float64(qp.gamma[i]) - want); d > 0.5+1e-9 {
			t.Fatalf("gamma[%d] = %d, float curve gives %g", i, qp.gamma[i], want)
		}
	}
}
