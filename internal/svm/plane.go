// Response-plane scoring: the float window scorer of the sweep. A block
// of the level grid is read by every window that covers it, each time
// at a different window-relative position p, so the sweep computes each
// block's dot with every weight slice W_p that reads it once, into a
// plane, and a window's margin becomes Bias plus one plane entry per
// position. The dots are the bulk of the work and vectorize across
// positions: one block element times four positions' weights per
// 256-bit multiply (plane_amd64.s).
//
// Which positions read a block depends on the anchor lattice. With an
// anchor step of (sx, sy) cells, the block at (cx, cy) is read at
// position (pbx, pby) only when pbx*BlockStride = cx (mod sx) and
// pby*BlockStride = cy (mod sy). The positions fall into sx*sy classes
// by those residues; a block computes only its class's dots. A
// pedestrian window at a one-cell step has one class of all 21
// positions; a vehicle window at a two-cell step has four, of 16, 12,
// 12 and 9 positions.
package svm

// PlaneLayout is a BlockModel's weights transposed for one anchor
// lattice step: per position class, the class's weight slices
// interleaved so one block element meets every position of the class
// in consecutive memory. A plane row holds Width floats per block; the
// dot of block cx with the class position of slot k is at cx*Width+k.
// It is immutable between Init calls and safe for concurrent readers.
type PlaneLayout struct {
	Width int // floats per block in a plane row: the widest class, padded to a multiple of 4

	stepX, stepY int // anchor step in cells
	blockStride  int // window-relative block step in cells
	bias         float64
	bw, bh       int
	bl           int          // floats per block
	classes      []planeClass // class (rx, ry) at ry*stepX+rx
	colOff       []int        // per canonical position p: its block's column offset plus its slot

	lastBM    *BlockModel // Init memo: skip the transpose when nothing changed
	lastModel *Model
}

// planeClass is the positions one residue class of blocks is read at.
type planeClass struct {
	width int       // class positions padded to a multiple of 4; 0 when no position reads the class
	wt    []float64 // wt[i*width+k]: element i of the weight slice at slot k (zero past the class)
}

// Init transposes bm's weights for anchor steps stepX, stepY (cells)
// and window-relative block stride blockStride, reusing pl's buffers.
// A repeat Init against the same BlockModel, model and steps is a
// no-op. The steps must be positive.
func (pl *PlaneLayout) Init(bm *BlockModel, stepX, stepY, blockStride int) {
	if pl.lastBM == bm && pl.lastModel == bm.lastModel &&
		pl.stepX == stepX && pl.stepY == stepY && pl.blockStride == blockStride {
		return
	}
	pl.stepX, pl.stepY, pl.blockStride = stepX, stepY, blockStride
	pl.bias, pl.bw, pl.bh, pl.bl = bm.Bias, bm.BW, bm.BH, bm.BlockLen
	nc := stepX * stepY
	for len(pl.classes) < nc {
		pl.classes = append(pl.classes, planeClass{}) // lint:alloc runs once per model reshape, not per scan
	}
	pl.classes = pl.classes[:nc]
	// Class sizes first: the plane row's block width is the widest.
	counts := make([]int, nc) // lint:alloc runs once per model reshape, not per scan
	for pby := 0; pby < bm.BH; pby++ {
		for pbx := 0; pbx < bm.BW; pbx++ {
			counts[pl.classOf(pbx, pby)]++
		}
	}
	pl.Width = 0
	for c, n := range counts {
		w := (n + 3) &^ 3
		pl.Width = max(pl.Width, w)
		cl := &pl.classes[c]
		cl.width = w
		if cap(cl.wt) < w*bm.BlockLen {
			cl.wt = make([]float64, w*bm.BlockLen) // lint:alloc runs once per model reshape, not per scan
		}
		cl.wt = cl.wt[:w*bm.BlockLen]
		clear(cl.wt)
	}
	// Slots in canonical position order within each class.
	pl.colOff = growInts(pl.colOff, bm.BW*bm.BH)
	clear(counts)
	p := 0
	for pby := 0; pby < bm.BH; pby++ {
		for pbx := 0; pbx < bm.BW; pbx++ {
			c := pl.classOf(pbx, pby)
			cl := &pl.classes[c]
			k := counts[c]
			counts[c]++
			for i, w := range bm.PosWeights(p) {
				cl.wt[i*cl.width+k] = w
			}
			pl.colOff[p] = pbx*blockStride*pl.Width + k
			p++
		}
	}
	pl.lastBM, pl.lastModel = bm, bm.lastModel
}

// classOf returns the class index of window-relative position (pbx, pby).
func (pl *PlaneLayout) classOf(pbx, pby int) int {
	return (pby*pl.blockStride%pl.stepY)*pl.stepX + pbx*pl.blockStride%pl.stepX
}

// FillRow writes plane row cy of a level block grid nbx blocks wide
// into dst: for every block column cx < ncx, the dots of block (cx, cy)
// with the weight slices of its class, at dst[cx*Width:]. Each dot is
// WindowMargin's for that block and position, bit for bit: the
// ascending-index sum of rounded products. dst must hold ncx*Width
// floats; entries past a class's positions hold no dot.
//
// lint:hotpath
func (pl *PlaneLayout) FillRow(dst, blocks []float64, nbx, cy, ncx int) {
	ry := cy % pl.stepY
	for rx := 0; rx < min(pl.stepX, ncx); rx++ {
		cl := &pl.classes[ry*pl.stepX+rx]
		if cl.width == 0 {
			continue
		}
		n := (ncx-1-rx)/pl.stepX + 1
		planeKernel(dst[rx*pl.Width:], pl.stepX*pl.Width, blocks[(cy*nbx+rx)*pl.bl:], pl.stepX*pl.bl, n, cl.wt, cl.width)
	}
}

// Margins writes into out[i] the margin of the window at anchor
// anchors[i] of one lattice row: Bias plus the plane entries of the
// window's positions, added in canonical position order, which is
// bitwise WindowMargin. rows[pby] is the plane row of the block row
// the window reads at position row pby (ay*stepY + pby*blockStride),
// filled by FillRow over every block column the anchors reach.
//
// lint:hotpath
func (pl *PlaneLayout) Margins(out []float64, rows [][]float64, anchors []int) {
	out = out[:len(anchors)]
	rows = rows[:pl.bh]
	step := pl.stepX * pl.Width
	// Four windows per pass: each keeps its own add chain, in the same
	// order, so interleaving them only overlaps their latencies.
	i := 0
	for ; i+4 <= len(anchors); i += 4 {
		b0, b1, b2, b3 := anchors[i]*step, anchors[i+1]*step, anchors[i+2]*step, anchors[i+3]*step
		s0, s1, s2, s3 := pl.bias, pl.bias, pl.bias, pl.bias
		for pby, r := range rows {
			for _, off := range pl.colOff[pby*pl.bw:][:pl.bw] {
				s0 += r[b0+off]
				s1 += r[b1+off]
				s2 += r[b2+off]
				s3 += r[b3+off]
			}
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < len(anchors); i++ {
		b := anchors[i] * step
		s := pl.bias
		for pby, r := range rows {
			for _, off := range pl.colOff[pby*pl.bw:][:pl.bw] {
				s += r[b+off]
			}
		}
		out[i] = s
	}
}

// planeKernelGo is the portable plane kernel and the oracle the
// assembly body is tested against: for each of n blocks (block j at
// blocks[j*blkStride:], len(wt)/cw floats) and each of cw lanes k,
// dst[j*dstStride+k] = sum over i of wt[i*cw+k]*block[i], accumulated
// from zero in ascending i with every product rounded before its add.
// Blocks go two at a time, four lanes per pass (lanes2x4); an odd last
// block is paired with itself.
//
// lint:hotpath
func planeKernelGo(dst []float64, dstStride int, blocks []float64, blkStride, n int, wt []float64, cw int) {
	bl := len(wt) / cw
	for j := 0; j < n; j += 2 {
		j1 := min(j+1, n-1)
		b0, b1 := blocks[j*blkStride:][:bl], blocks[j1*blkStride:][:bl]
		o0, o1 := dst[j*dstStride:][:cw], dst[j1*dstStride:][:cw]
		for g := 0; g < cw; g += 4 {
			o0[g], o0[g+1], o0[g+2], o0[g+3], o1[g], o1[g+1], o1[g+2], o1[g+3] = lanes2x4(b0, b1, wt[g:], cw)
		}
	}
}

// lanes2x4 is eight of planeKernelGo's lanes: blocks b0 and b1 against
// the four weight lanes starting at wt[0], one weight row every cw
// floats. The explicit conversions keep the compiler from fusing a
// multiply and its add on any target, so each lane matches the
// assembly's separate multiplies and adds bit for bit. Kept out of
// line: its eight accumulators fill the registers.
//
// lint:hotpath
//
//go:noinline
func lanes2x4(b0, b1, wt []float64, cw int) (a0, a1, a2, a3, c0, c1, c2, c3 float64) {
	b1 = b1[:len(b0)]
	for i, v := range b0 {
		u := b1[i]
		w := wt[i*cw:][:4]
		a0 += float64(w[0] * v)
		a1 += float64(w[1] * v)
		a2 += float64(w[2] * v)
		a3 += float64(w[3] * v)
		c0 += float64(w[0] * u)
		c1 += float64(w[1] * u)
		c2 += float64(w[2] * u)
		c3 += float64(w[3] * u)
	}
	return a0, a1, a2, a3, c0, c1, c2, c3
}

// planeKernel fills n blocks' plane entries: the AVX2 body where the
// CPU has it, the portable body otherwise. The two are bitwise equal
// (FuzzPlaneKernel).
//
// lint:hotpath
func planeKernel(dst []float64, dstStride int, blocks []float64, blkStride, n int, wt []float64, cw int) {
	if !planeKernelAsm(dst, dstStride, blocks, blkStride, n, wt, cw) {
		planeKernelGo(dst, dstStride, blocks, blkStride, n, wt, cw)
	}
}
