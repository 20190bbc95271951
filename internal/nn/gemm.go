package nn

import (
	"math"

	"sov/internal/parallel"
)

// im2col + register-blocked integer GEMM: QConv2D's one backend (DESIGN.md
// §10). The convolution reshapes into C[OutC × P] = W[OutC × kd] · A[kd × P]
// with kd = InC·K·K and P = OH·OW output pixels. Weight panels (B) pack once
// at construction into reversed biased triple words (swar.go). Activation
// panels (A) pack per column block from a zero-point-padded copy of the
// input: the border of that copy holds the input's zero-point code, which
// *is* real zero, so an output pixel's window is always kd in-bounds bytes
// at fixed offsets from its top-left corner and border columns need no code
// of their own. The offsets live in a per-shape tap table. The 4×4
// micro-kernel keeps sixteen triple-dot accumulators live across the shared
// kd sweep: every A load feeds four weight rows, every B load four pixels,
// and every 64-bit multiply retires three MACs.

// gemmColBlock is the im2col column-block width (output pixels per A
// panel). Chosen by the cachesim sweep in tiles_test.go: the block's packed
// words (nw·8·gemmColBlock bytes) plus the full B panel set must stay
// cache-resident together — then the B panels survive from block to block
// and only the A gather misses. On the perception-shaped GEMM stream the
// sweep's miss-rate optimum sits at 32 columns (12 KB of A panel + 12 KB of
// B); wall-clock is flat from 32 to 128 on the ALU-bound kernel, so the
// traffic optimum ships (DESIGN.md §10).
const gemmColBlock = 32

// gemmState is QConv2D's GEMM backend: construction-time weight panels,
// which ShareClone aliases, and per-instance scratch, which it zeroes.
type gemmState struct {
	nw   int      // packed words per kd-length dot product (swarWords)
	mpad int      // OutC rounded up to the 4-row panel height
	b    []uint64 // packed B panels, [mpad/4] panels of [nw][4] words
	rowC []int64  // per-channel triple-dot constant (swarRowConst)
	gemmScratch
}

// gemmScratch is everything a forward pass writes in the layer instance.
type gemmScratch struct {
	// abuf and sbuf hold one A panel and one Σu row per fan-out tile (one
	// in all on the serial path), grown on first use. Slabs are a cache line
	// apart (gemmSlabs), so two workers never write the same line.
	abuf []uint64
	sbuf []int32
	// pbuf is the input as biased bytes u = x+128 inside a zero-point
	// border, InC × (inH+2·Pad) × (inW+2·Pad); taps[k] is the byte offset of
	// im2col row k = (ic, ky, kx) from a window's top-left corner in it.
	// Both are built for the inH×inW input last seen: the border is filled
	// and the table computed on a shape change, the interior every call.
	pbuf     []byte
	taps     []int32
	inH, inW int
}

// initGEMM packs the weight panels. Row panels hold four output channels at
// word stride 4 — the micro-kernel streams one panel per j step; channels
// past OutC pad with zero words whose products land in discarded
// accumulators. The input zero point folds into the row constant: with the
// border holding the zero-point code every window is full, so the fold is
// exact everywhere.
func (c *QConv2D) initGEMM() {
	kd := c.InC * c.K * c.K
	nw := swarWords(kd)
	mpad := (c.OutC + 3) &^ 3
	c.gemm.nw = nw
	c.gemm.mpad = mpad
	c.gemm.b = make([]uint64, mpad*nw)
	c.gemm.rowC = make([]int64, c.OutC)
	words := make([]uint64, nw)
	for o := 0; o < c.OutC; o++ {
		wsumB := packWeightTriplesInto(words, c.Weights[o*kd:(o+1)*kd])
		panel := c.gemm.b[(o/4)*nw*4:]
		for j, w := range words {
			panel[j*4+o%4] = w
		}
		c.gemm.rowC[o] = swarRowConst(c.Bias[o], c.zeroIn, wsumB, nw)
	}
}

// reshape rebuilds the padded buffer's border and the tap table for an
// h×w input (cold: runs on the first call and on a shape change).
func (c *QConv2D) reshape(h, w int) {
	g := &c.gemm
	ph, pw := h+2*c.Pad, w+2*c.Pad
	if n := c.InC * ph * pw; cap(g.pbuf) < n {
		g.pbuf = make([]byte, n)
	} else {
		g.pbuf = g.pbuf[:n]
	}
	upad := uint8(int8(c.zeroIn)) ^ 0x80
	for i := range g.pbuf {
		g.pbuf[i] = upad
	}
	if g.taps == nil {
		g.taps = make([]int32, 0, c.InC*c.K*c.K)
	}
	g.taps = g.taps[:0]
	for ic := 0; ic < c.InC; ic++ {
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				g.taps = append(g.taps, int32((ic*ph+ky)*pw+kx))
			}
		}
	}
	g.inH, g.inW = h, w
}

// packInput rewrites the input tensor as biased bytes into the interior of
// the padded buffer, once per forward pass before any fan-out (the buffer
// and the tap table are read-only to the workers).
func (c *QConv2D) packInput(in *QTensor) {
	g := &c.gemm
	if g.pbuf == nil || g.inH != in.H || g.inW != in.W {
		c.reshape(in.H, in.W)
	}
	ph, pw := in.H+2*c.Pad, in.W+2*c.Pad
	for ic := 0; ic < c.InC; ic++ {
		for y := 0; y < in.H; y++ {
			src := in.Data[(ic*in.H+y)*in.W:][:in.W]
			dst := g.pbuf[(ic*ph+y+c.Pad)*pw+c.Pad:][:in.W]
			for x, v := range src {
				dst[x] = uint8(v) ^ 0x80
			}
		}
	}
}

// forwardGEMM runs the convolution as a blocked integer GEMM. Column blocks
// are independent (each owns its output columns across every channel), so
// they fan out across the workers; the integer arithmetic is exact, so
// the output is byte-identical for any worker count. A plane of one or two
// column blocks (the detector's 7×9 head, the fleet detector's 8×8 and 4×4
// layers) is one tile and takes the serial path: two workers lost to one on
// all three (EXPERIMENTS.md, "Fan-out audit"). Tile t packs into slab t of
// the layer's scratch.
func (c *QConv2D) forwardGEMM(in, out *QTensor) {
	p := c.gemmCols(out)
	if p == 0 {
		return // a pooled plane under 2×2 floors to nothing
	}
	c.packInput(in)
	nblk := ceilDiv(p, gemmColBlock)
	grain := 1 + 2*gemmColBlock/p
	tiles := 1
	if parallel.Workers() > 1 && nblk > grain {
		tiles = parallel.Tiles(nblk, grain)
	}
	as, ss := c.gemmSlabs()
	if cap(c.gemm.abuf) < tiles*as {
		c.gemm.abuf = make([]uint64, tiles*as)
	}
	if cap(c.gemm.sbuf) < tiles*ss {
		c.gemm.sbuf = make([]int32, tiles*ss)
	}
	if tiles == 1 {
		c.gemmBlocks(out, p, 0, nblk, 0)
		return
	}
	parallel.For(nblk, grain, func(b0, b1 int) { c.gemmBlocks(out, p, b0, b1, b0/grain) })
}

// gemmCols returns the GEMM column count P for an output tensor: one column
// per output pixel, or with a fused pool four per pooled pixel (its 2×2
// window of conv pixels, see corner).
func (c *QConv2D) gemmCols(out *QTensor) int {
	if c.Pool {
		return 4 * out.H * out.W
	}
	return out.H * out.W
}

// corner returns the padded-buffer offset of GEMM column col's window for
// an output ow pixels wide (pw is the padded input width). Without a pool
// column col is output pixel col. With one, group col/4 is pooled pixel q
// and col%4 picks its window's conv pixel (2·qy + col%4/2, 2·qx + col%4%2),
// so a four-column group is one 2×2 max-pool window and the conv pixels
// the floor drops (an odd last row or column) are never computed.
func (c *QConv2D) corner(col, ow, pw int) int {
	oy, ox := col/ow, col%ow
	if c.Pool {
		q, ci := col>>2, col&3
		oy, ox = 2*(q/ow)+ci>>1, 2*(q%ow)+ci&1
	}
	return (oy*pw + ox) * c.Stride
}

// gemmSlabs returns the spacing of the per-tile A panels (in words) and Σu
// rows (in int32s): each slab plus one 64-byte cache line.
func (c *QConv2D) gemmSlabs() (as, ss int) {
	return c.gemm.nw*gemmColBlock + 8, gemmColBlock + 16
}

// gemmBlocks runs column blocks [b0, b1) through scratch slab t.
func (c *QConv2D) gemmBlocks(out *QTensor, p, b0, b1, t int) {
	as, ss := c.gemmSlabs()
	ap := c.gemm.abuf[t*as:][:c.gemm.nw*gemmColBlock]
	su := c.gemm.sbuf[t*ss:][:gemmColBlock]
	for blk := b0; blk < b1; blk++ {
		c.gemmBlock(out, p, blk*gemmColBlock, ap, su)
	}
}

// gemmBlock packs one im2col column block and multiplies it against every
// weight panel, requantizing straight into the output tensor. A full 4×4
// tile (four real channels, four real columns) writes back straight from
// its sixteen accumulators; with a fused pool each row stores the code of
// its largest accumulator, which is the max of the four codes because
// requantization is monotonic. A tile cut by OutC or by the plane's end
// takes the guarded loop.
func (c *QConv2D) gemmBlock(out *QTensor, p, colBase int, ap []uint64, su []int32) {
	cols := gemmColBlock
	if colBase+cols > p {
		cols = p - colBase
	}
	groups := (cols + 3) / 4
	nw := c.gemm.nw
	pw := c.gemm.inW + 2*c.Pad
	for g := 0; g < groups; g++ {
		var corner [4]int
		for ci := range corner {
			// Phantom columns of the last group repeat the last real one:
			// their accumulators are never written back.
			corner[ci] = c.corner(min(colBase+g*4+ci, p-1), out.W, pw)
		}
		c.packAGroup(ap[g*nw*4:(g+1)*nw*4], su[g*4:g*4+4], corner)
	}
	rq := c.rq
	plane := out.H * out.W
	for rb := 0; rb < c.gemm.mpad/4; rb++ {
		o0 := rb * 4
		bp := c.gemm.b[rb*nw*4 : (rb+1)*nw*4]
		for g := 0; g < groups; g++ {
			a := ap[g*nw*4 : (g+1)*nw*4]
			b := bp[:len(a)]
			var s00, s01, s02, s03 uint64
			var s10, s11, s12, s13 uint64
			var s20, s21, s22, s23 uint64
			var s30, s31, s32, s33 uint64
			for len(a) >= 4 && len(b) >= 4 {
				x0, x1, x2, x3 := a[0], a[1], a[2], a[3]
				b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
				a, b = a[4:], b[4:]
				s00 += (x0 * b0) >> swarShift
				s01 += (x1 * b0) >> swarShift
				s02 += (x2 * b0) >> swarShift
				s03 += (x3 * b0) >> swarShift
				s10 += (x0 * b1) >> swarShift
				s11 += (x1 * b1) >> swarShift
				s12 += (x2 * b1) >> swarShift
				s13 += (x3 * b1) >> swarShift
				s20 += (x0 * b2) >> swarShift
				s21 += (x1 * b2) >> swarShift
				s22 += (x2 * b2) >> swarShift
				s23 += (x3 * b2) >> swarShift
				s30 += (x0 * b3) >> swarShift
				s31 += (x1 * b3) >> swarShift
				s32 += (x2 * b3) >> swarShift
				s33 += (x3 * b3) >> swarShift
			}
			col := colBase + g*4
			if o0+4 <= c.OutC && g*4+4 <= cols {
				rc := c.gemm.rowC[o0 : o0+4 : o0+4]
				s := su[g*4 : g*4+4 : g*4+4]
				u0, u1, u2, u3 := -128*int64(s[0]), -128*int64(s[1]), -128*int64(s[2]), -128*int64(s[3])
				a00, a01, a02, a03 := int32(rc[0]+u0+int64(s00)), int32(rc[0]+u1+int64(s01)), int32(rc[0]+u2+int64(s02)), int32(rc[0]+u3+int64(s03))
				a10, a11, a12, a13 := int32(rc[1]+u0+int64(s10)), int32(rc[1]+u1+int64(s11)), int32(rc[1]+u2+int64(s12)), int32(rc[1]+u3+int64(s13))
				a20, a21, a22, a23 := int32(rc[2]+u0+int64(s20)), int32(rc[2]+u1+int64(s21)), int32(rc[2]+u2+int64(s22)), int32(rc[2]+u3+int64(s23))
				a30, a31, a32, a33 := int32(rc[3]+u0+int64(s30)), int32(rc[3]+u1+int64(s31)), int32(rc[3]+u2+int64(s32)), int32(rc[3]+u3+int64(s33))
				if c.Pool {
					d := out.Data[o0*plane+col/4:]
					d[0] = rq.apply(max(a00, a01, a02, a03))
					d[plane] = rq.apply(max(a10, a11, a12, a13))
					d[2*plane] = rq.apply(max(a20, a21, a22, a23))
					d[3*plane] = rq.apply(max(a30, a31, a32, a33))
					continue
				}
				d0 := out.Data[o0*p+col:][:4:4]
				d1 := out.Data[(o0+1)*p+col:][:4:4]
				d2 := out.Data[(o0+2)*p+col:][:4:4]
				d3 := out.Data[(o0+3)*p+col:][:4:4]
				d0[0], d0[1], d0[2], d0[3] = rq.apply(a00), rq.apply(a01), rq.apply(a02), rq.apply(a03)
				d1[0], d1[1], d1[2], d1[3] = rq.apply(a10), rq.apply(a11), rq.apply(a12), rq.apply(a13)
				d2[0], d2[1], d2[2], d2[3] = rq.apply(a20), rq.apply(a21), rq.apply(a22), rq.apply(a23)
				d3[0], d3[1], d3[2], d3[3] = rq.apply(a30), rq.apply(a31), rq.apply(a32), rq.apply(a33)
				continue
			}
			sums := [16]uint64{
				s00, s01, s02, s03,
				s10, s11, s12, s13,
				s20, s21, s22, s23,
				s30, s31, s32, s33,
			}
			for r := 0; r < 4 && o0+r < c.OutC; r++ {
				o := o0 + r
				rc := c.gemm.rowC[o]
				if c.Pool {
					m := int32(math.MinInt32)
					for ci := 0; ci < 4; ci++ {
						m = max(m, int32(rc-128*int64(su[g*4+ci])+int64(sums[r*4+ci])))
					}
					out.Data[o*plane+col/4] = rq.apply(m)
					continue
				}
				for ci := 0; ci < 4 && g*4+ci < cols; ci++ {
					out.Data[o*p+col+ci] = rq.apply(int32(rc - 128*int64(su[g*4+ci]) + int64(sums[r*4+ci])))
				}
			}
		}
	}
}

// packAGroup gathers four output pixels' kd-length im2col columns into one
// A panel (pixel ci at word offset ci, stride 4) and writes each pixel's Σu.
// corner[ci] is the pixel's window corner in the padded buffer; every tap is
// then an in-bounds byte at its table offset, so the sweep has no row or
// column tests. Three taps fill a word; a 1- or 2-tap tail leaves the
// word's padding lanes at u = 0.
func (c *QConv2D) packAGroup(panel []uint64, su []int32, corner [4]int) {
	pb := c.gemm.pbuf
	w0, w1, w2, w3 := pb[corner[0]:], pb[corner[1]:], pb[corner[2]:], pb[corner[3]:]
	taps := c.gemm.taps
	var s0, s1, s2, s3 uint64
	for ; len(taps) >= 3; taps, panel = taps[3:], panel[4:] {
		t0, t1, t2 := taps[0], taps[1], taps[2]
		q := panel[:4:4]
		a, b, d := uint64(w0[t0]), uint64(w0[t1]), uint64(w0[t2])
		s0 += a + b + d
		q[0] = a | b<<swarLane | d<<swarShift
		a, b, d = uint64(w1[t0]), uint64(w1[t1]), uint64(w1[t2])
		s1 += a + b + d
		q[1] = a | b<<swarLane | d<<swarShift
		a, b, d = uint64(w2[t0]), uint64(w2[t1]), uint64(w2[t2])
		s2 += a + b + d
		q[2] = a | b<<swarLane | d<<swarShift
		a, b, d = uint64(w3[t0]), uint64(w3[t1]), uint64(w3[t2])
		s3 += a + b + d
		q[3] = a | b<<swarLane | d<<swarShift
	}
	if len(taps) > 0 {
		q := panel[:4:4]
		q[0], q[1], q[2], q[3] = 0, 0, 0, 0 // padding lanes hold u = 0
		for l, t := range taps {
			a, b, d, e := uint64(w0[t]), uint64(w1[t]), uint64(w2[t]), uint64(w3[t])
			s0, s1, s2, s3 = s0+a, s1+b, s2+d, s3+e
			sh := swarLane * l
			q[0] |= a << sh
			q[1] |= b << sh
			q[2] |= d << sh
			q[3] |= e << sh
		}
	}
	su[0], su[1], su[2], su[3] = int32(s0), int32(s1), int32(s2), int32(s3)
}
