package nn

// SWAR (SIMD Within A Register) substrate for the second-generation int8
// kernels (DESIGN.md §10). The kernels below this file (QFC and the im2col
// GEMM micro-kernel behind QConv2D) do their multiply-accumulate on three
// activations per 64-bit word. Everything is exact integer arithmetic — the
// SWAR paths produce bit-identical accumulators to the scalar references
// the package tests compare them with.
//
// Lane layout and the triple-dot identity
//
// Signed int8 codes are first rebased to the unsigned domain,
//
//	u = x + 128 ∈ [0, 255]   (byte: u = uint8(x) ^ 0x80)
//	w' = w + 128 ∈ [1, 255]  (weights are symmetric, |w| ≤ 127)
//
// so lane products never need sign extension. A dot product rebuilds from
// the unsigned one by the exact correction
//
//	Σ w·x = Σ u·w' − 128·Σu − 128·Σw' + 16384·n
//
// over n padded elements; a padding element with u = 0, w' = 128 contributes
// 0·128 − 0 − 128·128 + 16384 = 0, so any length pads for free.
//
// The triple-dot kernel packs three consecutive activations into 22-bit
// lanes of a word, A = u₀ | u₁<<22 | u₂<<44, and the matching weights
// *reversed*, B = w'₂ | w'₁<<22 | w'₀<<44. Lane i of A meets lane j of B at
// bit 22·(i+2−j), so in the 64-bit product
//
//	A·B = u₀w'₂ + (u₀w'₁ + u₁w'₂)<<22 + (u₀w'₀ + u₁w'₁ + u₂w'₂)<<44
//	      + (u₁w'₀ + u₂w'₁)<<66 + u₂w'₀<<88                    (mod 2⁶⁴)
//
// the last two terms vanish mod 2⁶⁴; the low terms sum to at most
// 65025 + 130050·2²² < 2⁴⁰, so they cannot carry into bit 44; and the
// window sum is at most 3·255² = 195075 < 2¹⁸, so it ends below bit 62 and
// nothing wraps. (A·B)>>44 therefore extracts u₀w'₀ + u₁w'₁ + u₂w'₂
// exactly, with no mask: three MACs per multiply. Three is the most an
// exact 8×8-bit dot fits in one 64-bit product — a fourth lane's low cross
// terms would carry into the window.

// swarLane is the lane width of a packed word, and swarShift the bit where
// the triple-dot window starts in a product of two words.
const (
	swarLane  = 22
	swarShift = 2 * swarLane
)

// swarWords returns the packed word count for an n-element dot product.
func swarWords(n int) int { return (n + 2) / 3 }

// packTriplesInto packs src (int8 codes) into biased activation words
// dst[j] = u₃ⱼ | u₃ⱼ₊₁<<22 | u₃ⱼ₊₂<<44 and returns Σu. dst must have
// swarWords(len(src)) elements; a 1- or 2-element tail pads with u = 0.
func packTriplesInto(dst []uint64, src []int8) int64 {
	var sum int64
	j := 0
	for ; len(src) >= 3; j++ {
		a := uint64(uint8(src[0]) ^ 0x80)
		b := uint64(uint8(src[1]) ^ 0x80)
		c := uint64(uint8(src[2]) ^ 0x80)
		src = src[3:]
		dst[j] = a | b<<swarLane | c<<swarShift
		sum += int64(a + b + c)
	}
	if len(src) > 0 {
		var word uint64 // padding lanes stay u = 0
		for l, v := range src {
			u := uint64(uint8(v) ^ 0x80)
			word |= u << (swarLane * l)
			sum += int64(u)
		}
		dst[j] = word
	}
	return sum
}

// packWeightTriplesInto packs one weight row into reversed biased words
// dst[j] = w'₃ⱼ₊₂ | w'₃ⱼ₊₁<<22 | w'₃ⱼ<<44 (the triple-dot operand order) and
// returns Σw' over the padded row. dst must have swarWords(len(row))
// elements; lanes past the row's end hold w = 0, the padding w' = 128.
func packWeightTriplesInto(dst []uint64, row []int8) int64 {
	var sum int64
	for j := range dst {
		var t [3]int8
		copy(t[:], row[3*j:])
		a := uint64(uint8(t[0]) ^ 0x80)
		b := uint64(uint8(t[1]) ^ 0x80)
		c := uint64(uint8(t[2]) ^ 0x80)
		dst[j] = c | b<<swarLane | a<<swarShift
		sum += int64(a + b + c)
	}
	return sum
}

// swarRowConst folds everything constant about one weight row of the
// triple-dot identity: the bias, the input zero point's share −zeroIn·Σw
// (Σw = Σw' − 128·n: a padding lane is w = 0), −128·Σw', and +16384·n over
// the padded length n = 3·words. The kernel then computes
// acc = rowConst + Σ(u·w') − 128·Σu.
func swarRowConst(bias, zeroIn int32, wsumBiased int64, words int) int64 {
	n := int64(3 * words)
	return int64(bias) - int64(zeroIn)*(wsumBiased-128*n) - 128*wsumBiased + 16384*n
}
