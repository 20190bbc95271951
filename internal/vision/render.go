package vision

import (
	"math"
)

// Fx and fy are the pinhole focal lengths in pixels: the deployed camera's
// geometry scaled to the 160×120 rendering every experiment uses.
const (
	Fx float64 = 120
	fy float64 = 120
)

// Intrinsics is a pinhole camera model with the Fx, fy focal lengths.
type Intrinsics struct {
	Cx, Cy float64 // principal point
	W, H   int
}

// DefaultIntrinsics returns the rig used throughout the experiments: a
// 160×120 rendering of the deployed camera's geometry (focal length scaled
// accordingly) to keep the real-algorithm benches fast.
func DefaultIntrinsics() Intrinsics {
	return Intrinsics{Cx: 80, Cy: 60, W: 160, H: 120}
}

// StereoRig is a rectified stereo pair: the right camera is displaced by
// Baseline along the camera-frame X axis.
type StereoRig struct {
	Intr     Intrinsics
	Baseline float64 // meters
}

// DefaultStereoRig returns a 12 cm baseline rig.
func DefaultStereoRig() StereoRig {
	return StereoRig{Intr: DefaultIntrinsics(), Baseline: 0.12}
}

// DepthFromDisparity converts a disparity in pixels to metric depth.
func (r StereoRig) DepthFromDisparity(d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return Fx * r.Baseline / d
}

// DisparityFromDepth converts metric depth to disparity in pixels.
func (r StereoRig) DisparityFromDepth(z float64) float64 {
	if z <= 0 {
		return math.Inf(1)
	}
	return Fx * r.Baseline / z
}

// Box is a textured axis-aligned rectangle at constant camera-frame depth:
// the renderer's scene primitive. X/Y are the camera-frame coordinates of
// its center, in meters; depth Z is along the optical axis.
type Box struct {
	X, Y, Z float64 // center, camera frame (X right, Y down, Z forward)
	W, H    float64 // extent in meters
	Texture uint32  // procedural texture seed
}

// Scene is a renderable set of boxes over a textured background plane.
type Scene struct {
	Background uint32 // background texture seed
	BgDepth    float64
	Boxes      []Box
}

// hash32 is a small integer hash for procedural texturing.
func hash32(x, y, seed uint32) float32 {
	h := x*0x9E3779B1 ^ y*0x85EBCA77 ^ seed*0xC2B2AE3D
	h ^= h >> 15
	h *= 0x2C1B3C6D
	h ^= h >> 12
	return float32(h&0xFFFF) / 65535.0
}

// texture samples a band-limited procedural texture at world coordinates
// (meters): two octaves of smoothly interpolated hash noise, with texels
// chosen so the pattern stays resolvable (not aliased) at the depths the
// experiments use — a prerequisite for sub-pixel stereo and LK tracking.
func texture(u, v float64, seed uint32) float32 {
	return 0.7*textureOctave(u, v, seed, 0.08) + 0.3*textureOctave(u, v, seed^0xA5A5A5A5, 0.3)
}

func textureOctave(u, v float64, seed uint32, texel float64) float32 {
	x := u / texel
	y := v / texel
	x0, y0 := math.Floor(x), math.Floor(y)
	fx, fy := float32(x-x0), float32(y-y0)
	ix, iy := uint32(int64(x0)+1<<20), uint32(int64(y0)+1<<20)
	v00 := hash32(ix, iy, seed)
	v10 := hash32(ix+1, iy, seed)
	v01 := hash32(ix, iy+1, seed)
	v11 := hash32(ix+1, iy+1, seed)
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// Render draws the scene from a camera displaced by baselineOffset meters
// along camera X (0 for the left camera, rig baseline for the right).
// Boxes are rendered nearest-last so closer boxes occlude farther ones.
func (s Scene) Render(intr Intrinsics, baselineOffset float64) *Image {
	im := NewImage(intr.W, intr.H)
	var scratch []Box
	s.RenderInto(im, intr, baselineOffset, &scratch)
	return im
}

// RenderInto draws the scene into im, which must be intr.W×intr.H, borrowing
// *scratch for the depth sort (grown as needed and handed back) — the
// zero-allocation variant of Render for recycled frame buffers. Every pixel
// is overwritten, so im may hold a stale frame on entry.
func (s Scene) RenderInto(im *Image, intr Intrinsics, baselineOffset float64, scratch *[]Box) {
	if im.W != intr.W || im.H != intr.H {
		panic("vision: RenderInto image does not match intrinsics")
	}
	// Depth-sorted copy, far to near.
	boxes := append((*scratch)[:0], s.Boxes...)
	*scratch = boxes
	for i := 1; i < len(boxes); i++ {
		for j := i; j > 0 && boxes[j].Z > boxes[j-1].Z; j-- {
			boxes[j], boxes[j-1] = boxes[j-1], boxes[j]
		}
	}
	for py := 0; py < intr.H; py++ {
		for px := 0; px < intr.W; px++ {
			// Back-project the pixel ray.
			dx := (float64(px) - intr.Cx) / Fx
			dy := (float64(py) - intr.Cy) / fy
			// Background plane.
			var val float32
			if s.BgDepth > 0 {
				u := dx*s.BgDepth + baselineOffset
				v := dy * s.BgDepth
				val = 0.3 + 0.4*texture(u, v, s.Background)
			}
			for _, b := range boxes {
				// Intersection of the ray with the plane Z = b.Z.
				u := dx*b.Z + baselineOffset // camera-frame X at depth Z (left cam at 0)
				v := dy * b.Z
				if math.Abs(u-b.X) <= b.W/2 && math.Abs(v-b.Y) <= b.H/2 {
					val = 0.5 + 0.5*texture(u-b.X, v-b.Y, b.Texture)
				}
			}
			im.Pix[py*im.W+px] = val
		}
	}
}

// RenderStereo renders the left and right views of the scene.
func (s Scene) RenderStereo(rig StereoRig) (left, right *Image) {
	return s.Render(rig.Intr, 0), s.Render(rig.Intr, rig.Baseline)
}
