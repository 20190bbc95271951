// Package mathx provides the small linear-algebra and signal-processing
// primitives shared by the SoV subsystems: 2-D/3-D vectors, a Cholesky
// solve of small symmetric positive-definite systems, and radix-2 FFTs.
//
// Everything is allocation-conscious: the hot paths (the EKF's innovation
// solve, KCF correlation) reuse caller-provided buffers where it matters.
package mathx

import "math"

// Vec2 is a 2-D vector (planar positions, image coordinates).
type Vec2 struct {
	X, Y float64
}

// Add returns v + u.
func (v Vec2) Add(u Vec2) Vec2 { return Vec2{v.X + u.X, v.Y + u.Y} }

// Sub returns v - u.
func (v Vec2) Sub(u Vec2) Vec2 { return Vec2{v.X - u.X, v.Y - u.Y} }

// Scale returns s*v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Dot returns the inner product of v and u.
func (v Vec2) Dot(u Vec2) float64 { return v.X*u.X + v.Y*u.Y }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// DistTo returns the Euclidean distance between v and u.
func (v Vec2) DistTo(u Vec2) float64 { return v.Sub(u).Norm() }

// Rotate returns v rotated by theta radians counter-clockwise.
func (v Vec2) Rotate(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{c*v.X - s*v.Y, s*v.X + c*v.Y}
}

// Angle returns atan2(Y, X).
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Vec3 is a 3-D vector (world positions, accelerations, angular rates).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v - u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product of v and u.
func (v Vec3) Dot(u Vec3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// DistTo returns the Euclidean distance between v and u.
func (v Vec3) DistTo(u Vec3) float64 { return v.Sub(u).Norm() }

// XY projects v onto the ground plane.
func (v Vec3) XY() Vec2 { return Vec2{v.X, v.Y} }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// WrapAngle normalizes an angle to (-pi, pi]; ±Inf and NaN give NaN. An
// angle already in range returns at once, and this check is all a caller
// inlines.
func WrapAngle(a float64) float64 {
	if a > math.Pi || a <= -math.Pi {
		return wrapAngle(a)
	}
	return a
}

// wrapAngle is WrapAngle for an angle outside (-pi, pi]. Angles within 64π
// step back 2π at a time (every trace byte depends on that rounding);
// larger ones are first reduced exactly by math.Remainder, so the loops run
// at most 32 times for any input.
func wrapAngle(a float64) float64 {
	if math.Abs(a) > 64*math.Pi {
		a = math.Remainder(a, 2*math.Pi)
	}
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
