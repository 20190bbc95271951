package mathx

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVec2Basics(t *testing.T) {
	v := Vec2{3, 4}
	if v.Norm() != 5 {
		t.Fatalf("norm = %v, want 5", v.Norm())
	}
	if got := v.Add(Vec2{1, -1}); got != (Vec2{4, 3}) {
		t.Fatalf("add = %v", got)
	}
	if got := v.Sub(Vec2{3, 4}); got != (Vec2{}) {
		t.Fatalf("sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec2{6, 8}) {
		t.Fatalf("scale = %v", got)
	}
	if got := v.Dot(Vec2{1, 1}); got != 7 {
		t.Fatalf("dot = %v", got)
	}
}

func TestVec2Rotate(t *testing.T) {
	v := Vec2{1, 0}
	r := v.Rotate(math.Pi / 2)
	if !almostEq(r.X, 0, 1e-12) || !almostEq(r.Y, 1, 1e-12) {
		t.Fatalf("rotate 90 = %v", r)
	}
	if !almostEq(v.Rotate(math.Pi).Angle(), math.Pi, 1e-12) {
		t.Fatalf("angle after pi rotate = %v", v.Rotate(math.Pi).Angle())
	}
}

func TestVec2RotatePreservesNorm(t *testing.T) {
	f := func(x, y, theta float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(theta) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(theta, 0) {
			return true
		}
		x, y = math.Mod(x, 1e6), math.Mod(y, 1e6)
		theta = math.Mod(theta, 2*math.Pi)
		v := Vec2{x, y}
		return almostEq(v.Rotate(theta).Norm(), v.Norm(), 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-2.5 * math.Pi, -0.5 * math.Pi},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapAngleRange(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Mod(a, 64*math.Pi)
		w := WrapAngle(a)
		return w > -math.Pi-1e-9 && w <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// wrapAngleLoop is WrapAngle before it reduced large angles: 2π steps
// only. It is the oracle for every |a| <= 64π.
func wrapAngleLoop(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// TestWrapAngleReturns covers inputs the 2π loop never finished on (|a| so
// large that a-2π == a, or ±Inf) and pins every angle within 64π to the
// loop's result bit for bit.
func TestWrapAngleReturns(t *testing.T) {
	cases := []struct {
		in      float64
		wantNaN bool
	}{
		{1e17, false},
		{-1e17, false},
		{-1e300, false},
		{math.MaxFloat64, false},
		{64*math.Pi + 1e-9, false},
		{math.Inf(1), true},
		{math.Inf(-1), true},
		{math.NaN(), true},
	}
	for _, c := range cases {
		got := WrapAngle(c.in)
		if c.wantNaN {
			if !math.IsNaN(got) {
				t.Errorf("WrapAngle(%v) = %v, want NaN", c.in, got)
			}
			continue
		}
		if !(got > -math.Pi && got <= math.Pi) {
			t.Errorf("WrapAngle(%v) = %v, outside (-π, π]", c.in, got)
		}
		if r := math.Remainder(c.in, 2*math.Pi); got != r && !(r == -math.Pi && got == math.Pi) {
			t.Errorf("WrapAngle(%v) = %v, want remainder %v", c.in, got, r)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	small := []float64{0, math.Pi, -math.Pi, 2 * math.Pi, 64 * math.Pi, -64 * math.Pi,
		math.Nextafter(64*math.Pi, 0), math.Nextafter(-64*math.Pi, 0), math.SmallestNonzeroFloat64}
	for range 100000 {
		small = append(small, (2*rng.Float64()-1)*64*math.Pi)
	}
	for _, a := range small {
		if got, want := WrapAngle(a), wrapAngleLoop(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WrapAngle(%v) = %v, the 2π loop gives %v", a, got, want)
		}
	}
}

func TestLerp(t *testing.T) {
	if Lerp(0, 10, 0.5) != 5 {
		t.Fatal("lerp midpoint")
	}
	if Lerp(2, 4, 0) != 2 || Lerp(2, 4, 1) != 4 {
		t.Fatal("lerp endpoints")
	}
}
