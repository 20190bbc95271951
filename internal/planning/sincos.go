package planning

import "math"

// The sine and cosine coefficients of math.Sincos (Cephes sin.c), in its
// order: highest power first.
const (
	sin0 = 1.58962301576546568060e-10  // 0x3de5d8fd1fd19ccd
	sin1 = -2.50507477628578072866e-8  // 0xbe5ae5e5a9291f5d
	sin2 = 2.75573136213857245213e-6   // 0x3ec71de3567d48a1
	sin3 = -1.98412698295895385996e-4  // 0xbf2a01a019bfdf03
	sin4 = 8.33333333332211858878e-3   // 0x3f8111111110f7d0
	sin5 = -1.66666666666666307295e-1  // 0xbfc5555555555548
	cos0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
	cos1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
	cos2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
	cos3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
	cos4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
	cos5 = 4.16666666666665929218e-2   // 0x3fa555555555554b
)

// firstOctant reports whether math.Sincos reduces h to itself: h is not ±0
// and |h|·(4/π) rounds below 1, so Sincos's octant is 0 and its reduced
// argument is |h| exactly. ±0, NaN, ±Inf and every |h| from π/4 on are
// false and go to math.Sincos.
func firstOctant(h float64) bool {
	a := math.Abs(h)
	return a > 0 && a*(4/math.Pi) < 1
}

// sincosPoly is math.Sincos(h) for a firstOctant h, bit for bit: Sincos's
// two polynomials with its coefficients in its operation order, with none
// of its branches. It evaluates the sine on the signed h where Sincos
// evaluates it on |h| and negates: the polynomial is odd, every term keeps
// h's sign and rounding to nearest is symmetric under negation, so the
// result is the same negation. The cosine reads only h².
func sincosPoly(h float64) (sin, cos float64) {
	zz := h * h
	cos = 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
	sin = h + h*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
	return sin, cos
}
