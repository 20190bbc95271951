package isp

import (
	"math"
	"slices"
	"testing"

	"sov/internal/vision"
)

// process runs the float chain into fresh buffers.
func process(c PixelPipelineConfig, in *vision.Image) *vision.Image {
	out, blur := vision.NewImage(in.W, in.H), vision.NewImage(in.W, in.H)
	c.ProcessInto(out, blur, in)
	return out
}

func noisyRamp() *vision.Image {
	im := vision.NewImage(64, 48)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := float32(x)/64 + float32((x*7+y*13)%5)*0.01
			im.Set(x, y, v)
		}
	}
	return im
}

func TestProcessDoesNotMutateInput(t *testing.T) {
	im := noisyRamp()
	before := slices.Clone(im.Pix)
	process(DefaultPixelPipeline(), im)
	if !slices.Equal(im.Pix, before) {
		t.Fatal("pipeline mutated its input")
	}
}

func TestBlackLevelSubtraction(t *testing.T) {
	im := vision.NewImage(4, 4)
	for i := range im.Pix {
		im.Pix[i] = 0.01 // below the pedestal
	}
	cfg := PixelPipelineConfig{BlackLevel: 0.02}
	out := process(cfg, im)
	for _, v := range out.Pix {
		if v != 0 {
			t.Fatalf("pedestal not clamped: %v", v)
		}
	}
}

func TestDenoiseReducesNoise(t *testing.T) {
	im := noisyRamp()
	cfg := PixelPipelineConfig{DenoiseStrength: 0.8}
	out := process(cfg, im)
	// Measure high-frequency energy via neighbor differences.
	hf := func(im *vision.Image) float64 {
		var s float64
		for y := 1; y < im.H-1; y++ {
			for x := 1; x < im.W-1; x++ {
				d := float64(im.At(x, y) - im.At(x+1, y))
				s += d * d
			}
		}
		return s
	}
	if hf(out) >= hf(im) {
		t.Fatal("denoise did not reduce high-frequency energy")
	}
}

func TestGammaBrightensShadows(t *testing.T) {
	im := vision.NewImage(2, 2)
	for i := range im.Pix {
		im.Pix[i] = 0.25
	}
	cfg := PixelPipelineConfig{Gamma: 2.0}
	out := process(cfg, im)
	want := float32(math.Sqrt(0.25))
	if math.Abs(float64(out.Pix[0]-want)) > 1e-6 {
		t.Fatalf("gamma = %v, want %v", out.Pix[0], want)
	}
}

func TestSharpenIncreasesEdgeContrast(t *testing.T) {
	// Mid-level step edge (headroom for overshoot on both sides).
	im := vision.NewImage(16, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 16; x++ {
			if x < 8 {
				im.Set(x, y, 0.3)
			} else {
				im.Set(x, y, 0.7)
			}
		}
	}
	cfg := PixelPipelineConfig{SharpenAmount: 0.8}
	out := process(cfg, im)
	// The first bright column should overshoot above the flat level.
	if out.At(8, 4) <= im.At(8, 4) {
		t.Fatalf("no overshoot: %v vs %v", out.At(8, 4), im.At(8, 4))
	}
	// And the last dark column should undershoot.
	if out.At(7, 4) >= im.At(7, 4) {
		t.Fatalf("no undershoot: %v vs %v", out.At(7, 4), im.At(7, 4))
	}
	// Output must stay clamped.
	for _, v := range out.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("unclamped output %v", v)
		}
	}
}

func TestFullChainPreservesTrackability(t *testing.T) {
	// The chain must not destroy the texture downstream vision matches
	// features on: stereo support points survive it.
	rig := vision.DefaultStereoRig()
	scene := vision.Scene{Background: 5, BgDepth: 10,
		Boxes: []vision.Box{{X: 0, Y: 0, Z: 4, W: 3, H: 2, Texture: 9}}}
	left, right := scene.RenderStereo(rig)
	cfg := DefaultPixelPipeline()
	raw := vision.SupportPoints(left, right, 12, 3, 8)
	proc := vision.SupportPoints(process(cfg, left), process(cfg, right), 12, 3, 8)
	if len(proc) < len(raw)/2 {
		t.Fatalf("processing destroyed stereo support points: %d -> %d", len(raw), len(proc))
	}
}

func BenchmarkPixelPipeline160x120(b *testing.B) {
	intr := vision.DefaultIntrinsics()
	scene := vision.Scene{Background: 5, BgDepth: 10}
	im := scene.Render(intr, 0)
	cfg := DefaultPixelPipeline()
	out, blur := vision.NewImage(im.W, im.H), vision.NewImage(im.W, im.H)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.ProcessInto(out, blur, im)
	}
}
