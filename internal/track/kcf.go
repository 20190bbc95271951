// Package track implements the two object-tracking paths of the SoV:
// the Kernelized Correlation Filter (KCF, Table III) — the compute-heavy
// visual baseline used when radar signals are unstable — and the radar
// trajectory tracker that normally replaces it (Sec. VI-B: "augmenting
// computing with sensors").
package track

import (
	"fmt"
	"math"

	"sov/internal/mathx"
	"sov/internal/parallel"
	"sov/internal/vision"
)

// KCF is a single-scale kernelized correlation filter with raw-pixel
// features, a cosine (Hann) window, Gaussian target labels, and Gaussian
// kernel correlation computed in the Fourier domain — the classic
// formulation of Henriques et al.
type KCF struct {
	Size   int // square patch side, power of two
	Sigma  float64
	Lambda float64
	// OutputSigma is the Gaussian label width in pixels.
	OutputSigma float64

	window []float64
	yf     []complex128
	// model
	alphaF []complex128
	xf     []complex128 // FFT of the training patch (windowed)
	xNorm  float64      // ||x||²
	cx, cy float64      // current target center
}

// NewKCF returns a tracker with a size×size template (size must be a power
// of two for the FFT).
func NewKCF(size int) *KCF {
	if size < 8 || size&(size-1) != 0 {
		panic(fmt.Sprintf("track: KCF size %d must be a power of two >= 8", size))
	}
	k := &KCF{Size: size, Sigma: 0.5, Lambda: 1e-4, OutputSigma: float64(size) / 10}
	k.window = make([]float64, size*size)
	for y := 0; y < size; y++ {
		wy := 0.5 * (1 - math.Cos(2*math.Pi*float64(y)/float64(size-1)))
		for x := 0; x < size; x++ {
			wx := 0.5 * (1 - math.Cos(2*math.Pi*float64(x)/float64(size-1)))
			k.window[y*size+x] = wx * wy
		}
	}
	// Gaussian labels centered at (0,0) with wrap-around.
	y := make([]complex128, size*size)
	s2 := k.OutputSigma * k.OutputSigma
	for yy := 0; yy < size; yy++ {
		dy := float64(yy)
		if dy > float64(size)/2 {
			dy -= float64(size)
		}
		for xx := 0; xx < size; xx++ {
			dx := float64(xx)
			if dx > float64(size)/2 {
				dx -= float64(size)
			}
			y[yy*size+xx] = complex(math.Exp(-(dx*dx+dy*dy)/(2*s2)), 0)
		}
	}
	if err := mathx.FFT2D(y, size, size, false); err != nil {
		panic(err)
	}
	k.yf = y
	return k
}

// extract pulls the windowed, zero-mean patch centered at (cx, cy) into a
// pooled buffer the caller must release with parallel.PutC128.
func (k *KCF) extract(im *vision.Image, cx, cy float64) []complex128 {
	n := k.Size
	patch := parallel.GetC128(n * n)
	half := float64(n) / 2
	vals := parallel.GetF64(n * n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			vals[y*n+x] = float64(im.Bilinear(cx-half+float64(x), cy-half+float64(y)))
		}
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(n * n)
	for i := range patch {
		patch[i] = complex((vals[i]-mean)*k.window[i], 0)
	}
	parallel.PutF64(vals)
	return patch
}

// gaussianCorrelationF computes the Fourier transform of the Gaussian
// kernel correlation between patches whose FFTs are xf and zf. The result
// is a pooled buffer the caller must release with parallel.PutC128.
func (k *KCF) gaussianCorrelationF(xf, zf []complex128, xNorm, zNorm float64) []complex128 {
	n := k.Size
	prod := parallel.GetC128(n * n)
	for i := range prod {
		// conj(xf)*zf — cross-correlation in Fourier domain.
		prod[i] = complex(real(xf[i]), -imag(xf[i])) * zf[i]
	}
	if err := mathx.FFT2D(prod, n, n, true); err != nil {
		panic(err)
	}
	out := parallel.GetC128(n * n)
	norm := float64(n * n)
	s2 := k.Sigma * k.Sigma
	for i := range out {
		d := (xNorm + zNorm - 2*real(prod[i])) / norm
		if d < 0 {
			d = 0
		}
		out[i] = complex(math.Exp(-d/s2), 0)
	}
	parallel.PutC128(prod)
	if err := mathx.FFT2D(out, n, n, false); err != nil {
		panic(err)
	}
	return out
}

// Init trains the filter on the patch centered at (cx, cy).
func (k *KCF) Init(im *vision.Image, cx, cy float64) {
	n := k.Size
	x := k.extract(im, cx, cy)
	k.xNorm = 0
	for _, v := range x {
		k.xNorm += real(v) * real(v)
	}
	// xf and alphaF are retained as model state, so they come from make,
	// not the scratch pools.
	xf := make([]complex128, len(x))
	copy(xf, x)
	parallel.PutC128(x)
	if err := mathx.FFT2D(xf, n, n, false); err != nil {
		panic(err)
	}
	k.xf = xf
	kf := k.gaussianCorrelationF(xf, xf, k.xNorm, k.xNorm)
	if k.alphaF == nil || len(k.alphaF) != len(kf) {
		k.alphaF = make([]complex128, len(kf))
	}
	alphaF := k.alphaF
	for i := range kf {
		alphaF[i] = k.yf[i] / (kf[i] + complex(k.Lambda, 0))
	}
	parallel.PutC128(kf)
	k.cx, k.cy = cx, cy
}

// Result is one tracking step outcome.
type Result struct {
	X, Y float64 // new center
}

// Update locates the target in the new frame starting from the previous
// center and retrains the model with linear interpolation.
func (k *KCF) Update(im *vision.Image) Result {
	if k.alphaF == nil {
		return Result{}
	}
	n := k.Size
	z := k.extract(im, k.cx, k.cy)
	var zNorm float64
	for _, v := range z {
		zNorm += real(v) * real(v)
	}
	zf := parallel.GetC128(len(z))
	copy(zf, z)
	parallel.PutC128(z)
	if err := mathx.FFT2D(zf, n, n, false); err != nil {
		panic(err)
	}
	kzf := k.gaussianCorrelationF(k.xf, zf, k.xNorm, zNorm)
	parallel.PutC128(zf)
	resp := parallel.GetC128(len(kzf))
	alphaF := k.alphaF
	for i := range kzf {
		resp[i] = kzf[i] * alphaF[i]
	}
	parallel.PutC128(kzf)
	if err := mathx.FFT2D(resp, n, n, true); err != nil {
		panic(err)
	}
	// Peak search with wrap-around displacement decoding.
	best := math.Inf(-1)
	bx, by := 0, 0
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			v := real(resp[y*n+x])
			if v > best {
				best = v
				bx, by = x, y
			}
		}
	}
	dx, dy := float64(bx), float64(by)
	// Sub-pixel parabola refinement with wrap-around neighbors.
	at := func(x, y int) float64 { return real(resp[((y+n)%n)*n+(x+n)%n]) }
	if den := at(bx-1, by) - 2*best + at(bx+1, by); den < -1e-12 {
		dx += 0.5 * (at(bx-1, by) - at(bx+1, by)) / den
	}
	if den := at(bx, by-1) - 2*best + at(bx, by+1); den < -1e-12 {
		dy += 0.5 * (at(bx, by-1) - at(bx, by+1)) / den
	}
	parallel.PutC128(resp)
	if dx > float64(n)/2 {
		dx -= float64(n)
	}
	if dy > float64(n)/2 {
		dy -= float64(n)
	}
	k.cx += dx
	k.cy += dy
	if best > 0.15 {
		// Retrain on the new location (full replace keeps the model
		// simple; interpolation factor 1.0).
		k.Init(im, k.cx, k.cy)
	}
	return Result{X: k.cx, Y: k.cy}
}
