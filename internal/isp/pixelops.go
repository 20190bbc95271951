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

// The deployed tuning of the processing chain.
const (
	// BlackLevel is subtracted from every pixel (sensor pedestal).
	BlackLevel float32 = 0.02
	// DenoiseStrength in [0,1] blends the 3×3 box blur.
	DenoiseStrength float32 = 0.4
	// Gamma applies v^(1/Gamma) tone mapping.
	Gamma float32 = 2.2
	// SharpenAmount adds (v - blur(v)) * amount.
	SharpenAmount float32 = 0.3
)

// ProcessInto runs the chain writing into out, using blur as blur scratch;
// both must match in's dimensions and may hold stale frames on entry, so
// recycled frame buffers make the chain allocation-free.
func ProcessInto(out, blur *vision.Image, in *vision.Image) {
	if out.W != in.W || out.H != in.H || blur.W != in.W || blur.H != in.H {
		panic("isp: ProcessInto buffer dimensions do not match input")
	}
	copy(out.Pix, in.Pix)
	subtractBlackLevel(out, BlackLevel)
	denoise(out, blur, DenoiseStrength)
	applyGamma(out, Gamma)
	sharpen(out, blur, SharpenAmount)
}

// subtractBlackLevel subtracts the sensor pedestal level, clamping at 0.
func subtractBlackLevel(out *vision.Image, level float32) {
	for i, v := range out.Pix {
		v -= level
		if v < 0 {
			v = 0
		}
		out.Pix[i] = v
	}
}

// denoise blends out with its 3×3 box blur at weight a.
func denoise(out, blur *vision.Image, a float32) {
	boxBlur3Into(blur, out)
	for i := range out.Pix {
		out.Pix[i] = out.Pix[i]*(1-a) + blur.Pix[i]*a
	}
}

// applyGamma tone-maps out by v^(1/gamma).
func applyGamma(out *vision.Image, gamma float32) {
	inv := 1 / float64(gamma)
	for i, v := range out.Pix {
		if v < 0 {
			v = 0
		}
		out.Pix[i] = float32(math.Pow(float64(v), inv))
	}
}

// sharpen applies the unsharp mask v + (v - blur(v))·amount, clamped to
// [0,1].
func sharpen(out, blur *vision.Image, amount float32) {
	boxBlur3Into(blur, out)
	for i := range out.Pix {
		v := out.Pix[i] + (out.Pix[i]-blur.Pix[i])*amount
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out.Pix[i] = v
	}
}

// boxBlur3Into writes a 3x3 mean filter of im into out (border clamped).
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
