package isp

import (
	"math"

	"sov/internal/vision"
)

// Fixed-point pixel pipeline (DESIGN.md §8): the same black-level → denoise
// → gamma → unsharp chain as ProcessInto, operating on 8-bit codes with
// integer arithmetic only. Blend coefficients are 8.8 fixed point, the gamma
// curve is a 256-entry table (the float path's math.Pow per pixel is the
// single most expensive operation in the whole ISP), and the 3×3 blur
// accumulates in int32 with exact rounding division. The chain is bitwise
// deterministic for any worker count and allocates nothing once constructed.

// QuantPixelPipeline is a PixelPipelineConfig compiled for 8-bit frames.
// Build one with PixelPipelineConfig.Quantized and reuse it across frames.
type QuantPixelPipeline struct {
	blackLevel int32 // code units
	denoiseA   int32 // 8.8 fixed-point blend weight
	sharpenA   int32 // 8.8 fixed-point sharpen amount
	gamma      [256]uint8
	hasGamma   bool
}

// Quantized compiles the float config into its fixed-point form. The gamma
// table is the only float computation, done once here.
func (c PixelPipelineConfig) Quantized() *QuantPixelPipeline {
	q := &QuantPixelPipeline{
		blackLevel: int32(c.BlackLevel*255 + 0.5),
		denoiseA:   int32(c.DenoiseStrength*256 + 0.5),
		sharpenA:   int32(c.SharpenAmount*256 + 0.5),
	}
	if c.Gamma > 0 && c.Gamma != 1 {
		q.hasGamma = true
		inv := 1 / float64(c.Gamma)
		for i := 0; i < 256; i++ {
			v := math.Pow(float64(i)/255, inv)
			q.gamma[i] = uint8(v*255 + 0.5)
		}
	}
	return q
}

// ProcessInto runs the fixed-point chain writing into out, using blur as
// blur scratch; both must match in's dimensions. Zero allocations.
//
//sov:hotpath
func (q *QuantPixelPipeline) ProcessInto(out, blur *vision.QImage, in *vision.QImage) {
	if out.W != in.W || out.H != in.H || blur.W != in.W || blur.H != in.H {
		panic("isp: ProcessInto buffer dimensions do not match input")
	}
	copy(out.Pix, in.Pix)
	// Black level: saturating subtract in code units.
	if q.blackLevel != 0 {
		bl := q.blackLevel
		for i, v := range out.Pix {
			d := int32(v) - bl
			if d < 0 {
				d = 0
			}
			out.Pix[i] = uint8(d)
		}
	}
	// Denoise: 8.8 fixed-point blend with the 3×3 box blur.
	if q.denoiseA > 0 {
		qBoxBlur3Into(blur, out)
		a := q.denoiseA
		for i := range out.Pix {
			v := int32(out.Pix[i])
			b := int32(blur.Pix[i])
			out.Pix[i] = uint8((v*(256-a) + b*a + 128) >> 8)
		}
	}
	// Gamma: one table lookup per pixel.
	if q.hasGamma {
		for i, v := range out.Pix {
			out.Pix[i] = q.gamma[v]
		}
	}
	// Unsharp mask: v + (v - blur)·amount in 8.8 fixed point, saturating.
	if q.sharpenA > 0 {
		qBoxBlur3Into(blur, out)
		a := q.sharpenA
		for i := range out.Pix {
			v := int32(out.Pix[i])
			t := (v - int32(blur.Pix[i])) * a
			if t >= 0 {
				t = (t + 128) >> 8
			} else {
				t = -((-t + 128) >> 8) // round half away from zero
			}
			v += t
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			out.Pix[i] = uint8(v)
		}
	}
}

// qBoxBlur3Into writes a 3×3 mean filter of im into out (border clamped):
// int32 accumulation, exact rounding division by 9, and a branch-free
// subslice loop over the interior rows.
//
//sov:hotpath
func qBoxBlur3Into(out, im *vision.QImage) {
	w, h := im.W, im.H
	for y := 0; y < h; y++ {
		if y > 0 && y < h-1 && w >= 3 {
			// Interior row: only the two edge columns need clamping.
			qBlurEdge(out, im, 0, y)
			r0 := im.Pix[(y-1)*w : y*w]
			r1 := im.Pix[y*w : (y+1)*w]
			r2 := im.Pix[(y+1)*w : (y+2)*w]
			o := out.Pix[y*w : (y+1)*w]
			for x := 1; x < w-1; x++ {
				s := int32(r0[x-1]) + int32(r0[x]) + int32(r0[x+1]) +
					int32(r1[x-1]) + int32(r1[x]) + int32(r1[x+1]) +
					int32(r2[x-1]) + int32(r2[x]) + int32(r2[x+1])
				o[x] = uint8((s + 4) / 9) // round(s/9): 9 is odd, no ties
			}
			qBlurEdge(out, im, w-1, y)
		} else {
			for x := 0; x < w; x++ {
				qBlurEdge(out, im, x, y)
			}
		}
	}
}

// qBlurEdge computes one border-clamped 3×3 mean at (x, y).
//
//sov:hotpath
func qBlurEdge(out, im *vision.QImage, x, y int) {
	var s int32
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			s += int32(im.At(x+dx, y+dy))
		}
	}
	out.Set(x, y, uint8((s+4)/9))
}
