package mathx

import (
	"math"
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

func TestLerp(t *testing.T) {
	if Lerp(0, 10, 0.5) != 5 {
		t.Fatal("lerp midpoint")
	}
	if Lerp(2, 4, 0) != 2 || Lerp(2, 4, 1) != 4 {
		t.Fatal("lerp endpoints")
	}
}
