package nn

// SWAR (SIMD Within A Register) substrate for the second-generation int8
// kernels (DESIGN.md §10). The kernels below this file (QFC and the im2col
// GEMM micro-kernel behind QConv2D) do their multiply-accumulate on two
// activations per 64-bit word. Everything is exact integer arithmetic — the
// SWAR paths produce bit-identical accumulators to the scalar references
// the package tests compare them with.
//
// Lane layout and the pair-dot identity
//
// Signed int8 codes are first rebased to the unsigned domain,
//
//	u = x + 128 ∈ [0, 255]   (byte: u = uint8(x) ^ 0x80)
//	w' = w + 128 ∈ [1, 255]  (weights are symmetric, |w| ≤ 127)
//
// so lane products never need sign extension. A dot product rebuilds from
// the unsigned one by the exact correction
//
//	Σ w·x = Σ u·w' − 128·Σu − 128·Σw' + 16384·n                      (pair-dot)
//
// over n padded elements; a padding element with u = 0, w' = 128 contributes
// 0·128 − 0 − 128·128 + 16384 = 0, so odd lengths pad for free.
//
// The pair-dot kernel packs two consecutive activations into the 32-bit
// halves of a word, A = u₀ | u₁<<32, and the matching weights *reversed*,
// B = w'₁ | w'₀<<32. Then in the 64-bit product
//
//	A·B = u₀w'₁ + (u₀w'₀ + u₁w'₁)<<32 + u₁w'₀<<64 (mod 2⁶⁴)
//
// the low half u₀w'₁ ≤ 255·255 = 65025 < 2³² cannot carry into the middle,
// the middle sum ≤ 130050 < 2³² cannot carry into the (discarded) top, so
// (A·B)>>32 extracts u₀w'₀ + u₁w'₁ exactly: two MACs per multiply.

// swarPadU and swarPadW are the padding lane values of the pair-dot
// identity: an (u, w') = (0, 128) element contributes exactly zero.
const (
	swarPadU = 0
	swarPadW = 128
)

// swarPairs returns the packed pair count for an n-element dot product.
func swarPairs(n int) int { return (n + 1) / 2 }

// packPairsInto packs src (int8 codes) into biased activation pair words
// dst[j] = u₂ⱼ | u₂ⱼ₊₁<<32 and returns Σu. dst must have swarPairs(len(src))
// elements; an odd tail pads with u = 0.
//
//sov:hotpath
func packPairsInto(dst []uint64, src []int8) int64 {
	var sum int64
	i, j := 0, 0
	for ; i+2 <= len(src); i, j = i+2, j+1 {
		a := uint64(uint8(src[i]) ^ 0x80)
		b := uint64(uint8(src[i+1]) ^ 0x80)
		dst[j] = a | b<<32
		sum += int64(a + b)
	}
	if i < len(src) {
		a := uint64(uint8(src[i]) ^ 0x80)
		dst[j] = a | swarPadU<<32
		sum += int64(a)
	}
	return sum
}

// packWeightPairsInto packs one weight row into reversed biased pair words
// dst[j] = w'₂ⱼ₊₁ | w'₂ⱼ<<32 (the pair-dot operand order) and returns Σw'
// over the padded row. dst must have swarPairs(len(row)) elements.
func packWeightPairsInto(dst []uint64, row []int8) int64 {
	var sum int64
	i, j := 0, 0
	for ; i+2 <= len(row); i, j = i+2, j+1 {
		a := uint64(uint8(row[i]) ^ 0x80)
		b := uint64(uint8(row[i+1]) ^ 0x80)
		dst[j] = b | a<<32
		sum += int64(a + b)
	}
	if i < len(row) {
		a := uint64(uint8(row[i]) ^ 0x80)
		dst[j] = swarPadW | a<<32
		sum += int64(a) + swarPadW
	}
	return sum
}

// swarRowConst folds everything constant about one weight row of the
// pair-dot identity: bias (with the input zero point already folded in),
// −128·Σw', and +16384·n over the padded length. The kernel then computes
// acc = rowConst + Σ(u·w') − 128·Σu.
func swarRowConst(foldedBias int32, wsumBiased int64, pairs int) int64 {
	return int64(foldedBias) - 128*wsumBiased + 16384*int64(2*pairs)
}
