package nn

import "sov/internal/parallel"

// im2col + register-blocked integer GEMM: QConv2D's one backend (DESIGN.md
// §10). The convolution reshapes into C[OutC × P] = W[OutC × kd] · A[kd × P]
// with kd = InC·K·K and P = OH·OW output pixels. Weight panels (B) pack once
// at construction into reversed biased pair words (swar.go). Activation
// panels (A) pack per column block from a zero-point-padded copy of the
// input: the border of that copy holds the input's zero-point code, which
// *is* real zero, so an output pixel's window is always kd in-bounds bytes
// at fixed offsets from its top-left corner and border columns need no code
// of their own. The offsets live in a per-shape tap table. The 4×4
// micro-kernel keeps sixteen pair-dot accumulators live across the shared
// kd sweep: every A load feeds four weight rows, every B load four pixels,
// and every 64-bit multiply retires two MACs.

// gemmColBlock is the im2col column-block width (output pixels per A
// panel). Chosen by the cachesim sweep in tiles_test.go: the block's pair
// words (np·8·gemmColBlock bytes) plus the full B panel set must stay
// cache-resident together — then the B panels survive from block to block
// and only the A gather misses. On the perception-shaped GEMM stream the
// sweep's miss-rate optimum sits at 32 columns (18 KB of A panel + 18 KB of
// B); wall-clock is flat from 32 to 128 on the ALU-bound kernel, so the
// traffic optimum ships (DESIGN.md §10).
const gemmColBlock = 32

// gemmState is QConv2D's GEMM backend: construction-time weight panels,
// which ShareClone aliases, and per-instance scratch, which it zeroes.
type gemmState struct {
	np   int      // pair words per kd-length dot product
	mpad int      // OutC rounded up to the 4-row panel height
	b    []uint64 // packed B panels, [mpad/4] panels of [np][4] words
	rowC []int64  // per-channel pair-dot constant (swarRowConst)
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
	np := swarPairs(kd)
	mpad := (c.OutC + 3) &^ 3
	c.gemm.np = np
	c.gemm.mpad = mpad
	c.gemm.b = make([]uint64, mpad*np)
	c.gemm.rowC = make([]int64, c.OutC)
	for o := 0; o < c.OutC; o++ {
		row := c.Weights[o*kd : (o+1)*kd]
		panel := c.gemm.b[(o/4)*np*4:]
		r := o % 4
		var wsum int32
		var wsumB int64
		for j := 0; j < np; j++ {
			a := uint64(uint8(row[2*j]) ^ 0x80)
			b := uint64(swarPadW)
			wsum += int32(row[2*j])
			if 2*j+1 < kd {
				b = uint64(uint8(row[2*j+1]) ^ 0x80)
				wsum += int32(row[2*j+1])
			}
			panel[j*4+r] = b | a<<32
			wsumB += int64(a + b)
		}
		c.gemm.rowC[o] = swarRowConst(c.Bias[o]-c.zeroIn*wsum, wsumB, np)
	}
}

// reshape rebuilds the padded buffer's border and the tap table for an
// h×w input (cold: runs on the first call and on a shape change).
func (c *QConv2D) reshape(h, w int) {
	g := &c.gemm
	ph, pw := h+2*c.Pad, w+2*c.Pad
	if n := c.InC * ph * pw; cap(g.pbuf) < n {
		//sovlint:ignore hotalloc first call or a larger input shape; warm passes reuse the padded buffer
		g.pbuf = make([]byte, n)
	} else {
		g.pbuf = g.pbuf[:n]
	}
	upad := uint8(int8(c.zeroIn)) ^ 0x80
	for i := range g.pbuf {
		g.pbuf[i] = upad
	}
	if g.taps == nil {
		//sovlint:ignore hotalloc first-call scratch growth; a shape change rewrites the table in place
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
//
//sov:hotpath
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
// they fan out across the worker pool; the integer arithmetic is exact, so
// the output is byte-identical for any worker count. A plane of one or two
// column blocks (the detector's 7×9 head, the fleet detector's 8×8 and 4×4
// layers) is one tile and takes the serial path: two workers lost to one on
// all three (EXPERIMENTS.md, "Fan-out audit"). Tile t packs into slab t of
// the layer's scratch.
//
//sov:hotpath
func (c *QConv2D) forwardGEMM(in, out *QTensor, oh, ow int) {
	c.packInput(in)
	p := oh * ow
	nblk := ceilDiv(p, gemmColBlock)
	grain := 1 + 2*gemmColBlock/p
	tiles := 1
	if parallel.Workers() > 1 && nblk > grain {
		tiles = parallel.Tiles(nblk, grain)
	}
	as, ss := c.gemmSlabs()
	if cap(c.gemm.abuf) < tiles*as {
		//sovlint:ignore hotalloc first-call scratch growth; warm passes reuse the A panels
		c.gemm.abuf = make([]uint64, tiles*as)
	}
	if cap(c.gemm.sbuf) < tiles*ss {
		//sovlint:ignore hotalloc first-call scratch growth; warm passes reuse the column-sum rows
		c.gemm.sbuf = make([]int32, tiles*ss)
	}
	if tiles == 1 {
		c.gemmBlocks(out, ow, p, 0, nblk, 0)
		return
	}
	//sovlint:ignore hotalloc fan-out closure only exists on the parallel path; the serial path above is allocation-free
	parallel.For(nblk, grain, func(b0, b1 int) { c.gemmBlocks(out, ow, p, b0, b1, b0/grain) })
}

// gemmSlabs returns the spacing of the per-tile A panels (in words) and Σu
// rows (in int32s): each slab plus one 64-byte cache line.
func (c *QConv2D) gemmSlabs() (as, ss int) {
	return c.gemm.np*gemmColBlock + 8, gemmColBlock + 16
}

// gemmBlocks runs column blocks [b0, b1) through scratch slab t.
//
//sov:hotpath
func (c *QConv2D) gemmBlocks(out *QTensor, ow, p, b0, b1, t int) {
	as, ss := c.gemmSlabs()
	ap := c.gemm.abuf[t*as:][:c.gemm.np*gemmColBlock]
	su := c.gemm.sbuf[t*ss:][:gemmColBlock]
	for blk := b0; blk < b1; blk++ {
		c.gemmBlock(out, ow, p, blk*gemmColBlock, ap, su)
	}
}

// gemmBlock packs one im2col column block and multiplies it against every
// weight panel, requantizing straight into the output tensor.
//
//sov:hotpath
func (c *QConv2D) gemmBlock(out *QTensor, ow, p, colBase int, ap []uint64, su []int32) {
	cols := gemmColBlock
	if colBase+cols > p {
		cols = p - colBase
	}
	groups := (cols + 3) / 4
	np := c.gemm.np
	pw := c.gemm.inW + 2*c.Pad
	for g := 0; g < groups; g++ {
		var corner [4]int
		for ci := range corner {
			// Phantom columns of the last group repeat the last real one:
			// their accumulators are never written back.
			col := min(colBase+g*4+ci, p-1)
			corner[ci] = (col/ow*pw + col%ow) * c.Stride
		}
		c.packAGroup(ap[g*np*4:(g+1)*np*4], su[g*4:g*4+4], corner)
	}
	rq := c.rq
	for rb := 0; rb < c.gemm.mpad/4; rb++ {
		bp := c.gemm.b[rb*np*4 : (rb+1)*np*4]
		for g := 0; g < groups; g++ {
			a := ap[g*np*4 : (g+1)*np*4]
			var s00, s01, s02, s03 uint64
			var s10, s11, s12, s13 uint64
			var s20, s21, s22, s23 uint64
			var s30, s31, s32, s33 uint64
			for j := 0; j < np; j++ {
				x0 := a[j*4]
				x1 := a[j*4+1]
				x2 := a[j*4+2]
				x3 := a[j*4+3]
				b0 := bp[j*4]
				b1 := bp[j*4+1]
				b2 := bp[j*4+2]
				b3 := bp[j*4+3]
				s00 += (x0 * b0) >> 32
				s01 += (x1 * b0) >> 32
				s02 += (x2 * b0) >> 32
				s03 += (x3 * b0) >> 32
				s10 += (x0 * b1) >> 32
				s11 += (x1 * b1) >> 32
				s12 += (x2 * b1) >> 32
				s13 += (x3 * b1) >> 32
				s20 += (x0 * b2) >> 32
				s21 += (x1 * b2) >> 32
				s22 += (x2 * b2) >> 32
				s23 += (x3 * b2) >> 32
				s30 += (x0 * b3) >> 32
				s31 += (x1 * b3) >> 32
				s32 += (x2 * b3) >> 32
				s33 += (x3 * b3) >> 32
			}
			sums := [16]uint64{
				s00, s01, s02, s03,
				s10, s11, s12, s13,
				s20, s21, s22, s23,
				s30, s31, s32, s33,
			}
			for r := 0; r < 4; r++ {
				o := rb*4 + r
				if o >= c.OutC {
					break
				}
				rc := c.gemm.rowC[o]
				obase := o * p
				for ci := 0; ci < 4; ci++ {
					col := colBase + g*4 + ci
					if col >= colBase+cols {
						break
					}
					out.Data[obase+col] = rq.apply(int32(rc - 128*int64(su[g*4+ci]) + int64(sums[r*4+ci])))
				}
			}
		}
	}
}

// packAGroup gathers four output pixels' kd-length im2col columns into one
// A panel (pixel ci at word offset ci, stride 4) and writes each pixel's Σu.
// corner[ci] is the pixel's window corner in the padded buffer; every tap is
// then an in-bounds byte at its table offset, so the sweep has no row or
// column tests. An odd kd pairs its last tap with the swarPadU lane.
//
//sov:hotpath
func (c *QConv2D) packAGroup(panel []uint64, su []int32, corner [4]int) {
	pb := c.gemm.pbuf
	w0, w1, w2, w3 := pb[corner[0]:], pb[corner[1]:], pb[corner[2]:], pb[corner[3]:]
	taps := c.gemm.taps
	var s0, s1, s2, s3 uint64
	j := 0
	for ; 2*j+1 < len(taps); j++ {
		lo, hi := taps[2*j], taps[2*j+1]
		q := panel[j*4 : j*4+4 : j*4+4]
		a, b := uint64(w0[lo]), uint64(w0[hi])
		s0 += a + b
		q[0] = a | b<<32
		a, b = uint64(w1[lo]), uint64(w1[hi])
		s1 += a + b
		q[1] = a | b<<32
		a, b = uint64(w2[lo]), uint64(w2[hi])
		s2 += a + b
		q[2] = a | b<<32
		a, b = uint64(w3[lo]), uint64(w3[hi])
		s3 += a + b
		q[3] = a | b<<32
	}
	if 2*j < len(taps) {
		lo := taps[2*j]
		q := panel[j*4 : j*4+4 : j*4+4]
		a, b, d, e := uint64(w0[lo]), uint64(w1[lo]), uint64(w2[lo]), uint64(w3[lo])
		s0, s1, s2, s3 = s0+a, s1+b, s2+d, s3+e
		q[0] = a | swarPadU<<32
		q[1] = b | swarPadU<<32
		q[2] = d | swarPadU<<32
		q[3] = e | swarPadU<<32
	}
	su[0], su[1], su[2], su[3] = int32(s0), int32(s1), int32(s2), int32(s3)
}
