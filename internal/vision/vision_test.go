package vision

import (
	"math"
	"testing"
)

func TestImageBasics(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(1, 2, 0.5)
	if im.At(1, 2) != 0.5 {
		t.Fatal("set/get failed")
	}
	// Border clamping.
	im.Set(0, 0, 0.9)
	if im.At(-5, -5) != 0.9 {
		t.Fatal("clamp to (0,0) failed")
	}
	if im.At(100, 100) != im.At(3, 2) {
		t.Fatal("clamp to max failed")
	}
	// Out-of-bounds set is dropped.
	im.Set(-1, 0, 123)
	if im.At(0, 0) != 0.9 {
		t.Fatal("OOB set leaked")
	}
}

func TestImagePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewImage(0, 5)
}

func TestBilinear(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, 0)
	im.Set(1, 0, 1)
	im.Set(0, 1, 2)
	im.Set(1, 1, 3)
	if got := im.Bilinear(0.5, 0.5); math.Abs(float64(got)-1.5) > 1e-6 {
		t.Fatalf("bilinear center = %v", got)
	}
	if got := im.Bilinear(0, 0); got != 0 {
		t.Fatalf("bilinear corner = %v", got)
	}
}

func TestRenderOcclusion(t *testing.T) {
	intr := DefaultIntrinsics()
	near := Scene{BgDepth: 30, Background: 1, Boxes: []Box{
		{X: 0, Y: 0, Z: 20, W: 4, H: 4, Texture: 2},
		{X: 0, Y: 0, Z: 5, W: 1, H: 1, Texture: 3},
	}}
	farOnly := Scene{BgDepth: 30, Background: 1, Boxes: []Box{
		{X: 0, Y: 0, Z: 20, W: 4, H: 4, Texture: 2},
	}}
	a := near.Render(intr, 0)
	b := farOnly.Render(intr, 0)
	// Center pixel must differ (near box occludes far box).
	if a.At(80, 60) == b.At(80, 60) {
		t.Fatal("near box did not occlude")
	}
	// Corner pixels (background) must agree.
	if a.At(2, 2) != b.At(2, 2) {
		t.Fatal("background corrupted by occluder")
	}
}

func TestStereoDisparityGeometry(t *testing.T) {
	rig := DefaultStereoRig()
	// f=120 px, b=0.12 m → at Z=4.8 m disparity = 3 px.
	if got := rig.DisparityFromDepth(4.8); math.Abs(got-3) > 1e-9 {
		t.Fatalf("disparity = %v, want 3", got)
	}
	if got := rig.DepthFromDisparity(3); math.Abs(got-4.8) > 1e-9 {
		t.Fatalf("depth = %v, want 4.8", got)
	}
	if !math.IsInf(rig.DepthFromDisparity(0), 1) {
		t.Fatal("zero disparity should be infinite depth")
	}
}

func TestBlockMatchRecoversKnownDepth(t *testing.T) {
	rig := DefaultStereoRig()
	z := 3.0
	s := Scene{Background: 5, BgDepth: 30, Boxes: []Box{{X: 0, Y: 0, Z: z, W: 3, H: 2.4, Texture: 11}}}
	left, right := s.RenderStereo(rig)
	m := BlockMatch(left, right, 12, 3)
	wantD := rig.DisparityFromDepth(z)
	med, ok := MedianDisparityIn(m, 60, 40, 100, 80)
	if !ok {
		t.Fatal("no valid disparities in object region")
	}
	if math.Abs(float64(med)-wantD) > 0.5 {
		t.Fatalf("median disparity = %v, want %v", med, wantD)
	}
	depth := rig.DepthFromDisparity(float64(med))
	if math.Abs(depth-z) > 0.3 {
		t.Fatalf("depth = %v, want %v", depth, z)
	}
}

func TestSupportPointStereoMatchesBlockMatch(t *testing.T) {
	rig := DefaultStereoRig()
	s := Scene{Background: 5, BgDepth: 20, Boxes: []Box{{X: 0, Y: 0, Z: 4, W: 3, H: 2.4, Texture: 9}}}
	left, right := s.RenderStereo(rig)
	bm := BlockMatch(left, right, 12, 3)
	sp := SupportPointStereo(left, right, 12, 3, 8, 2)
	bmMed, _ := MedianDisparityIn(bm, 60, 40, 100, 80)
	spMed, ok := MedianDisparityIn(sp, 60, 40, 100, 80)
	if !ok {
		t.Fatal("support-point stereo produced no disparities in region")
	}
	if math.Abs(float64(bmMed-spMed)) > 0.5 {
		t.Fatalf("BM %v vs ELAS-style %v", bmMed, spMed)
	}
}

func TestSupportPointsDetectPlane(t *testing.T) {
	rig := DefaultStereoRig()
	s := Scene{Background: 3, BgDepth: 6} // textured plane at 6 m → d = 2.4 px
	left, right := s.RenderStereo(rig)
	sps := SupportPoints(left, right, 10, 3, 8)
	if len(sps) < 20 {
		t.Fatalf("support points = %d, want >= 20", len(sps))
	}
	want := rig.DisparityFromDepth(6)
	good := 0
	for _, sp := range sps {
		if math.Abs(float64(sp.D)-want) < 0.75 {
			good++
		}
	}
	if float64(good)/float64(len(sps)) < 0.7 {
		t.Fatalf("only %d/%d support points near %v px", good, len(sps), want)
	}
}

func TestDisparityMapHelpers(t *testing.T) {
	m := &DisparityMap{W: 2, H: 2, D: []float32{1, -1, 2, 3}}
	if m.At(0, 0) != 1 || m.At(1, 0) != -1 {
		t.Fatal("At wrong")
	}
	if m.At(-1, 0) != -1 || m.At(0, 5) != -1 {
		t.Fatal("OOB should be -1")
	}
	med, ok := MedianDisparityIn(m, 0, 0, 1, 1)
	if !ok || med != 2 {
		t.Fatalf("median = %v ok=%v", med, ok)
	}
	if _, ok := MedianDisparityIn(m, 1, 0, 1, 0); ok {
		t.Fatal("all-invalid region should report !ok")
	}
}

func BenchmarkBlockMatch160x120(b *testing.B) {
	rig := DefaultStereoRig()
	s := Scene{Background: 5, BgDepth: 10, Boxes: []Box{{X: 0, Y: 0, Z: 4, W: 3, H: 2, Texture: 9}}}
	left, right := s.RenderStereo(rig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BlockMatch(left, right, 12, 2)
	}
}

func BenchmarkSupportPointStereo160x120(b *testing.B) {
	rig := DefaultStereoRig()
	s := Scene{Background: 5, BgDepth: 10, Boxes: []Box{{X: 0, Y: 0, Z: 4, W: 3, H: 2, Texture: 9}}}
	left, right := s.RenderStereo(rig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SupportPointStereo(left, right, 12, 2, 8, 2)
	}
}
