package vision

import (
	"math"
	"testing"
)

func TestQImageRoundTrip(t *testing.T) {
	im := NewImage(16, 8)
	for i := range im.Pix {
		im.Pix[i] = float32(i) / float32(len(im.Pix)-1)
	}
	q := QuantizeImage(im)
	for i := range im.Pix {
		// Half a code of quantization noise at most.
		back := float32(q.Pix[i]) / 255
		if d := math.Abs(float64(back - im.Pix[i])); d > 1.0/510+1e-6 {
			t.Fatalf("pixel %d: %g -> %d -> %g off by %g", i, im.Pix[i], q.Pix[i], back, d)
		}
	}
	im.Pix[0], im.Pix[1] = -0.5, 1.5
	QuantizeImageInto(q, im)
	if q.Pix[0] != 0 || q.Pix[1] != 255 {
		t.Fatalf("out-of-range pixels must saturate: got %d, %d", q.Pix[0], q.Pix[1])
	}
	if q.At(-3, -3) != q.At(0, 0) || q.At(100, 100) != q.At(15, 7) {
		t.Fatal("QImage.At border clamping broken")
	}
}

// disparityParity checks the fixed-point map against the float reference:
// where both are valid, disparities must agree within the documented budget
// on nearly every pixel (DESIGN.md §8).
func disparityParity(t *testing.T, ref, q *DisparityMap) {
	t.Helper()
	both, close_ := 0, 0
	var sum float64
	for i := range ref.D {
		if ref.D[i] < 0 || q.D[i] < 0 {
			continue
		}
		both++
		d := math.Abs(float64(ref.D[i] - q.D[i]))
		sum += d
		if d <= 1 {
			close_++
		}
	}
	if both < len(ref.D)/4 {
		t.Fatalf("only %d/%d pixels valid in both maps", both, len(ref.D))
	}
	if frac := float64(close_) / float64(both); frac < 0.95 {
		t.Fatalf("only %.1f%% of shared pixels within 1 disparity (want >= 95%%)", frac*100)
	}
	if mean := sum / float64(both); mean > 0.25 {
		t.Fatalf("mean |quant - float| disparity = %g (budget 0.25)", mean)
	}
}

func TestBlockMatchQuantTracksFloat(t *testing.T) {
	rig := DefaultStereoRig()
	z := 3.0
	s := Scene{Background: 5, BgDepth: 30, Boxes: []Box{{X: 0, Y: 0, Z: z, W: 3, H: 2.4, Texture: 11}}}
	left, right := s.RenderStereo(rig)
	ref := BlockMatch(left, right, 12, 3)
	q := &DisparityMap{}
	BlockMatchQuantInto(q, QuantizeImage(left), QuantizeImage(right), 12, 3, &StereoScratch{})
	disparityParity(t, ref, q)

	// The quantized map must still recover the known metric depth on its own.
	med, ok := MedianDisparityIn(q, 60, 40, 100, 80)
	if !ok {
		t.Fatal("no valid quantized disparities in object region")
	}
	if want := rig.DisparityFromDepth(z); math.Abs(float64(med)-want) > 0.5 {
		t.Fatalf("quantized median disparity = %v, want %v", med, want)
	}
}
