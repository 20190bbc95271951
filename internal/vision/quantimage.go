package vision

import "fmt"

// QImage is the fixed-point counterpart of Image: a single-channel 8-bit
// image, row-major, with the implicit quantization code = round(255·v) for
// real values in [0, 1]. The quantized perception path (DESIGN.md §8) keeps
// camera frames in this representation end to end — four times denser in
// cache than float32 and addressable by pure integer arithmetic.
type QImage struct {
	W, H int
	Pix  []uint8
}

// NewQImage allocates a zero 8-bit image.
func NewQImage(w, h int) *QImage {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("vision: invalid image size %dx%d", w, h))
	}
	return &QImage{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y) with border clamping, mirroring Image.At.
func (im *QImage) At(x, y int) uint8 {
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
func (im *QImage) Set(x, y int, v uint8) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// quantizePixel maps a real value in [0, 1] to its 8-bit code (round to
// nearest, saturating).
func quantizePixel(v float32) uint8 {
	q := int32(v*255 + 0.5)
	if q < 0 {
		q = 0
	}
	if q > 255 {
		q = 255
	}
	return uint8(q)
}

// QuantizeImageInto fills q (which must match im's dimensions) with im's
// pixels quantized to 8-bit codes. The only float arithmetic on the
// fixed-point camera path.
//
//sov:hotpath
func QuantizeImageInto(q *QImage, im *Image) {
	if q.W != im.W || q.H != im.H {
		panic("vision: QuantizeImageInto dimensions do not match")
	}
	for i, v := range im.Pix {
		q.Pix[i] = quantizePixel(v)
	}
}

// QuantizeImage returns a freshly allocated 8-bit copy of im.
func QuantizeImage(im *Image) *QImage {
	q := NewQImage(im.W, im.H)
	QuantizeImageInto(q, im)
	return q
}
