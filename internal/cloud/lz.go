package cloud

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
)

// The block codec is a byte-oriented LZ with no entropy stage. A stream is a
// list of sequences: a token (high nibble literal count, low nibble match
// length minus minMatch; a nibble of 15 is continued by bytes that add up,
// the last of them below 255), the literals, a two-byte little-endian offset
// back into what has been decoded, any match-length continuation. The last
// sequence stops after its literals and its low nibble is 0, so no stream is
// empty and none ends on a match. The stream does not carry its decoded
// length: a cut that falls on a sequence boundary decodes to a shorter
// payload, and a caller who must notice compares lengths, as the store does.
const (
	minMatch  = 4
	maxOffset = 1<<16 - 1
	hashBits  = 12
)

// Table is the compressor's whole state: the last position seen for each
// hash of four bytes. AppendCompress clears it first, so what a table has
// compressed before never shows in the bytes it emits; holding one only
// spares its owner 16 KB per call.
type Table [1 << hashBits]uint32

// AppendCompress appends src's stream to dst.
//
//sov:hotpath
func AppendCompress(dst, src []byte, t *Table) []byte {
	clear(t[:])
	anchor, i, misses := 0, 0, 0
	for i+minMatch <= len(src) {
		v := binary.LittleEndian.Uint32(src[i:])
		h := v * 2654435761 >> (32 - hashBits)
		c := int(t[h])
		t[h] = uint32(i)
		if c >= i || i-c > maxOffset || binary.LittleEndian.Uint32(src[c:]) != v {
			// A stretch without matches is probably incompressible: step faster.
			misses++
			i += 1 + misses>>5
			continue
		}
		misses = 0
		m := i + minMatch + matchLen(src[c+minMatch:], src[i+minMatch:])
		dst = appendSequence(dst, src[anchor:i], i-c, m-i)
		i, anchor = m, m
	}
	return appendSequence(dst, src[anchor:], 0, 0)
}

// matchLen counts the leading bytes a and b share; b is the shorter.
//
//sov:hotpath
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(b); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// appendSequence emits literals and, unless matchLen is 0 (the final
// sequence), a match of matchLen >= minMatch bytes offset back.
//
//sov:hotpath
func appendSequence(dst, literals []byte, offset, matchLen int) []byte {
	ln, mn := len(literals), max(matchLen-minMatch, 0)
	dst = append(dst, byte(min(ln, 15)<<4|min(mn, 15)))
	dst = appendLength(dst, ln)
	dst = append(dst, literals...)
	if matchLen == 0 {
		return dst
	}
	dst = append(dst, byte(offset), byte(offset>>8))
	return appendLength(dst, mn)
}

// appendLength continues a nibble that n saturated.
func appendLength(dst []byte, n int) []byte {
	if n < 15 {
		return dst
	}
	for n -= 15; n >= 255; n -= 255 {
		dst = append(dst, 255)
	}
	return append(dst, byte(n))
}

var (
	errCorrupt = errors.New("cloud: corrupt or truncated stream")
	errTooLong = errors.New("cloud: stream decodes past its stated length")
)

// AppendDecompress decodes src and appends the payload to dst. With
// limit >= 0 the payload may be at most limit bytes: a longer stream is an
// error before anything past the bound is written, which bounds what a
// crafted stream can make the caller hold; limit < 0 means no bound. It
// keeps no state and reports every malformed input as an error; on error dst
// comes back at its original length.
//
//sov:hotpath
func AppendDecompress(dst, src []byte, limit int) ([]byte, error) {
	out, s, end := dst, 0, math.MaxInt
	if limit >= 0 && limit < end-len(dst) {
		end = len(dst) + limit
	}
	for s < len(src) {
		tok := src[s]
		s++
		n, ok := int(tok>>4), true
		if n == 15 {
			if n, s, ok = readLength(src, s, n); !ok {
				return dst, errCorrupt
			}
		}
		if n > len(src)-s {
			return dst, errCorrupt
		}
		if n > end-len(out) {
			return dst, errTooLong
		}
		out = append(out, src[s:s+n]...)
		if s += n; s == len(src) {
			if tok&15 != 0 {
				return dst, errCorrupt
			}
			return out, nil
		}
		if len(src)-s < 2 {
			return dst, errCorrupt
		}
		off := int(binary.LittleEndian.Uint16(src[s:]))
		s += 2
		if n = int(tok & 15); n == 15 {
			if n, s, ok = readLength(src, s, n); !ok {
				return dst, errCorrupt
			}
		}
		n += minMatch
		if off == 0 || off > len(out)-len(dst) {
			return dst, errCorrupt
		}
		if n > end-len(out) {
			return dst, errTooLong
		}
		// A match may run into the bytes it is producing (offset < length
		// repeats a period), so it is copied in pieces no longer than what
		// already stands behind them.
		out = slices.Grow(out, n)
		for from := len(out) - off; n > 0; {
			k := min(n, len(out)-from)
			out = append(out, out[from:from+k]...)
			n -= k
		}
	}
	return dst, errCorrupt // empty, or ended on a match
}

// readLength adds a saturated nibble's continuation bytes to n.
func readLength(src []byte, s, n int) (int, int, bool) {
	for s < len(src) {
		b := src[s]
		s++
		n += int(b)
		if b != 255 {
			return n, s, true
		}
	}
	return 0, s, false
}
