// Package vision is the camera-processing substrate: a grayscale image
// container, a synthetic pinhole stereo renderer, and two stereo matchers
// (dense block matching and an ELAS-style support-point matcher).
// These are the "regular stencil" vision kernels the paper contrasts with
// irregular LiDAR processing (Sec. III-D).
package vision

import (
	"fmt"
	"math"
)

// Image is a single-channel float32 image, row-major.
type Image struct {
	W, H int
	Pix  []float32
}

// NewImage allocates a zero image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("vision: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the pixel at (x, y) with border clamping.
func (im *Image) At(x, y int) float32 {
	if x < 0 {
		x = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set assigns the pixel at (x, y); out-of-bounds writes are dropped.
func (im *Image) Set(x, y int, v float32) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Bilinear samples the image at a sub-pixel location.
func (im *Image) Bilinear(x, y float64) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	v00 := im.At(x0, y0)
	v10 := im.At(x0+1, y0)
	v01 := im.At(x0, y0+1)
	v11 := im.At(x0+1, y0+1)
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}
