package isp

import (
	"math"

	"sov/internal/vision"
)

// The pixel side of the ISP: the actual processing the latency model's
// "isp" stage stands for. A minimal grayscale chain — black-level
// subtraction, 3×3 denoise, gamma, unsharp mask — operating on the vision
// substrate's images. Benchmarked to show where sensing's compute actually
// goes (the paper: the camera pipeline dominates sensing latency).

// PixelPipelineConfig tunes the processing chain.
type PixelPipelineConfig struct {
	// BlackLevel is subtracted from every pixel (sensor pedestal).
	BlackLevel float32
	// DenoiseStrength in [0,1] blends the 3×3 box blur.
	DenoiseStrength float32
	// Gamma applies v^(1/Gamma) tone mapping.
	Gamma float32
	// SharpenAmount adds (v - blur(v)) * amount.
	SharpenAmount float32
}

// DefaultPixelPipeline matches the deployed tuning.
func DefaultPixelPipeline() PixelPipelineConfig {
	return PixelPipelineConfig{BlackLevel: 0.02, DenoiseStrength: 0.4, Gamma: 2.2, SharpenAmount: 0.3}
}

// ProcessInto runs the chain writing into out, using blur as blur scratch;
// both must match in's dimensions and may hold stale frames on entry, so
// recycled frame buffers make the chain allocation-free.
//
//sov:hotpath
func (c PixelPipelineConfig) ProcessInto(out, blur *vision.Image, in *vision.Image) {
	if out.W != in.W || out.H != in.H || blur.W != in.W || blur.H != in.H {
		panic("isp: ProcessInto buffer dimensions do not match input")
	}
	copy(out.Pix, in.Pix)
	// Black level.
	if c.BlackLevel != 0 {
		for i, v := range out.Pix {
			v -= c.BlackLevel
			if v < 0 {
				v = 0
			}
			out.Pix[i] = v
		}
	}
	// Denoise: blend with a 3x3 box blur.
	if c.DenoiseStrength > 0 {
		boxBlur3Into(blur, out)
		a := c.DenoiseStrength
		for i := range out.Pix {
			out.Pix[i] = out.Pix[i]*(1-a) + blur.Pix[i]*a
		}
	}
	// Gamma.
	if c.Gamma > 0 && c.Gamma != 1 {
		inv := 1 / float64(c.Gamma)
		for i, v := range out.Pix {
			if v < 0 {
				v = 0
			}
			out.Pix[i] = float32(math.Pow(float64(v), inv))
		}
	}
	// Unsharp mask.
	if c.SharpenAmount > 0 {
		boxBlur3Into(blur, out)
		for i := range out.Pix {
			v := out.Pix[i] + (out.Pix[i]-blur.Pix[i])*c.SharpenAmount
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			out.Pix[i] = v
		}
	}
}

// boxBlur3Into writes a 3x3 mean filter of im into out (border clamped).
//
//sov:hotpath
func boxBlur3Into(out, im *vision.Image) {
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var s float32
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					s += im.At(x+dx, y+dy)
				}
			}
			out.Set(x, y, s/9)
		}
	}
}
