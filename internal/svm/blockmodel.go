// Block-response evaluation: the descriptor-free factoring of the
// sliding-window margin the paper's PL datapath uses. A HOG window
// descriptor is the concatenation of its bw x bh normalized blocks, so
//
//	Margin(x) = Bias + sum_p dot(block_p(x), W_p)
//
// where W_p is the slice of W belonging to window-relative block
// position p. Neighboring windows share normalized blocks, so every
// window is scored straight from one per-level grid of blocks — no
// per-window descriptor is ever materialized.
package svm

import (
	"fmt"
	"math"
)

// BlockModel is a trained linear Model reshaped for block-response
// evaluation: per-window-relative-block weight slices plus the bias.
// It is immutable between Init calls and safe for concurrent readers.
type BlockModel struct {
	BW, BH   int // window-relative block grid (blocks per window axis)
	BlockLen int // floats per normalized block vector
	Bias     float64
	w        []float64 // copy of Model.W; position p at w[p*BlockLen:]

	// Early-exit precompute (see EarlyMarginAt). L2Hys blocks are
	// non-negative with L2 norm <= 1, so position p's partial response
	// dot(block, W_p) is bounded above by the L2 norm of the positive
	// part of W_p. Evaluating positions in descending order of that
	// bound shrinks the remaining-response upper bound as fast as
	// possible per block evaluated.
	order  []int     // block positions, descending positive-part norm
	ordPBX []int     // order[k]'s window-relative block x
	ordPBY []int     // order[k]'s window-relative block y
	tail   []float64 // tail[k]: sound upper bound on sum of dots of order[k:]

	lastModel *Model // Init memo: skip the reshape when nothing changed
}

// earlyExitGuard pads every tail bound so float rounding in the
// partial-sum comparison can never turn a sound reject into an unsound
// one: the Cauchy-Schwarz slack of the bound dwarfs it, and rejects
// only become (immeasurably) more conservative.
const earlyExitGuard = 1e-9

// NewBlockModel reshapes m for a window of bw x bh blocks of blockLen
// floats each. The HOG descriptor layout is already block-major, so
// the reshape is a partition of W, validated against the model length.
func NewBlockModel(m *Model, bw, bh, blockLen int) (*BlockModel, error) {
	bm := &BlockModel{}
	if err := bm.Init(m, bw, bh, blockLen); err != nil {
		return nil, err
	}
	return bm, nil
}

// Init (re)shapes m into bm, reusing bm's weight buffer when it has
// sufficient capacity so a pooled BlockModel costs no steady-state
// allocations, and precomputing the early-exit evaluation order and
// tail bounds. Models are treated as immutable once trained (the
// engine shares them across streams on that contract), so a repeat
// Init against the same *Model and geometry is a no-op.
func (bm *BlockModel) Init(m *Model, bw, bh, blockLen int) error {
	if bw <= 0 || bh <= 0 || blockLen <= 0 {
		return fmt.Errorf("svm: block model geometry %dx%d blocks of %d floats", bw, bh, blockLen) // lint:alloc cold validation error path, runs once per reshape not per window
	}
	if n := bw * bh * blockLen; n != len(m.W) {
		return fmt.Errorf("svm: model has %d weights, want %d (%dx%d blocks of %d floats)", // lint:alloc cold validation error path, runs once per reshape not per window
			len(m.W), n, bw, bh, blockLen)
	}
	if bm.lastModel == m && bm.BW == bw && bm.BH == bh && bm.BlockLen == blockLen {
		return nil
	}
	bm.BW, bm.BH, bm.BlockLen, bm.Bias = bw, bh, blockLen, m.Bias
	if cap(bm.w) < len(m.W) {
		bm.w = make([]float64, len(m.W))
	}
	bm.w = bm.w[:len(m.W)]
	copy(bm.w, m.W)
	bm.initEarlyExit()
	bm.lastModel = m
	return nil
}

// growInts returns s resized to n entries, reusing its backing array.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// fillPosNorms writes the positive-part L2 norm of every
// window-relative block position's weight slice into dst: the tight
// upper bound on dot(block, W_p) over non-negative blocks of norm
// <= 1, the constraint set L2Hys normalization produces.
func fillPosNorms(dst, w []float64, blockLen int) {
	for p := range dst {
		var ss float64
		for _, x := range w[p*blockLen:][:blockLen] {
			if x > 0 {
				ss += x * x
			}
		}
		dst[p] = math.Sqrt(ss)
	}
}

// orderByDescending fills order with 0..len-1 sorted by descending
// key, ties by ascending index so the order is deterministic.
// Insertion sort: the inputs are tiny (<= bw*bh positions) and the
// sort must not allocate on the pooled-scratch path.
func orderByDescending(order []int, key []float64) {
	for p := range order {
		order[p] = p
	}
	for i := 1; i < len(order); i++ {
		p := order[i]
		j := i
		for j > 0 && key[order[j-1]] < key[p] {
			order[j] = order[j-1]
			j--
		}
		order[j] = p
	}
}

// initEarlyExit precomputes the truncated-block evaluation order: the
// positive-part weight norm of every window-relative block position
// (the tight dot-product bound for non-negative unit-capped blocks),
// positions sorted by descending bound, and the suffix sums that bound
// everything not yet evaluated.
func (bm *BlockModel) initEarlyExit() {
	perWin := bm.BW * bm.BH
	bm.order = growInts(bm.order, perWin)
	bm.ordPBX = growInts(bm.ordPBX, perWin)
	bm.ordPBY = growInts(bm.ordPBY, perWin)
	if cap(bm.tail) < perWin+1 {
		bm.tail = make([]float64, perWin+1)
	}
	bm.tail = bm.tail[:perWin+1]

	// Positive-part norms, temporarily parked in tail[0:perWin].
	posNorm := bm.tail[:perWin]
	fillPosNorms(posNorm, bm.w, bm.BlockLen)
	orderByDescending(bm.order, posNorm)
	for k, p := range bm.order {
		bm.ordPBX[k] = p % bm.BW
		bm.ordPBY[k] = p / bm.BW
	}
	// Suffix bounds over the sorted order: tail[k] bounds the total
	// response of every position not yet evaluated after k blocks.
	// posNorm aliases tail, so gather the sorted norms before the
	// back-to-front suffix pass overwrites them.
	sorted := make([]float64, perWin) // lint:alloc runs once per model reshape (Init memoizes), not per scan
	for k, p := range bm.order {
		sorted[k] = posNorm[p]
	}
	bm.tail[perWin] = earlyExitGuard
	for k := perWin - 1; k >= 0; k-- {
		bm.tail[k] = bm.tail[k+1] + sorted[k]
	}
}

// PosWeights returns the weight slice of window-relative block
// position p (row-major, p = by*BW+bx). The slice aliases the model
// and must not be mutated.
func (bm *BlockModel) PosWeights(p int) []float64 {
	return bm.w[p*bm.BlockLen:][:bm.BlockLen]
}

// Lattice describes the anchor lattice of one pyramid level: the set
// of window positions a scan visits, expressed in cell coordinates
// over the level's normalized block grid.
type Lattice struct {
	NBX, NBY     int // block-grid dimensions (blocks per axis, one per cell)
	StepX, StepY int // anchor step in cells (scan stride / cell size)
	NAX, NAY     int // anchors per axis (window positions of the scan)
	BlockStride  int // window-relative block step in cells (hog Config.BlockStride)
}

// CheckLattice verifies once per level that every block any window of
// the lattice will read lies inside a block grid of blocksLen floats,
// so the per-window scorers (EarlyMarginAt, WindowMargin) can skip
// bounds checks on the hot path.
func (bm *BlockModel) CheckLattice(l Lattice, blocksLen int) error {
	return checkLattice(l, bm.BW, bm.BH, bm.BlockLen, blocksLen)
}

// checkLattice is the shared float/quantized lattice validation.
func checkLattice(l Lattice, bw, bh, blockLen, blocksLen int) error {
	if l.NAX <= 0 || l.NAY <= 0 {
		return fmt.Errorf("svm: empty anchor lattice %dx%d", l.NAX, l.NAY) // lint:alloc cold validation error path, runs once per reshape not per window
	}
	if l.StepX <= 0 || l.StepY <= 0 || l.BlockStride <= 0 {
		return fmt.Errorf("svm: non-positive lattice steps %+v", l) // lint:alloc cold validation error path, runs once per reshape not per window
	}
	maxCX := (l.NAX-1)*l.StepX + (bw-1)*l.BlockStride
	maxCY := (l.NAY-1)*l.StepY + (bh-1)*l.BlockStride
	if maxCX >= l.NBX || maxCY >= l.NBY {
		return fmt.Errorf("svm: lattice %+v reads block (%d,%d) outside %dx%d grid", // lint:alloc cold validation error path, runs once per reshape not per window
			l, maxCX, maxCY, l.NBX, l.NBY)
	}
	if need := l.NBX * l.NBY * blockLen; blocksLen < need {
		return fmt.Errorf("svm: block data holds %d values, grid needs %d", blocksLen, need) // lint:alloc cold validation error path, runs once per reshape not per window
	}
	return nil
}

// WindowMargin computes the full margin of the window at anchor
// (ax, ay) directly from the level block grid: one dot product per
// window-relative block position, the partials summed in canonical
// position order. It adds block-wise where Model.Margin over the
// window's descriptor accumulates one running dot product, so the two
// agree to floating-point reassociation (~1e-9 relative). The caller
// must have validated lat with CheckLattice.
//
// lint:hotpath
func (bm *BlockModel) WindowMargin(blocks []float64, lat Lattice, ax, ay int) float64 {
	s := bm.Bias
	p := 0
	for pby := 0; pby < bm.BH; pby++ {
		cy := ay*lat.StepY + pby*lat.BlockStride
		for pbx := 0; pbx < bm.BW; pbx++ {
			cx := ax*lat.StepX + pbx*lat.BlockStride
			blk := blocks[(cy*lat.NBX+cx)*bm.BlockLen:][:bm.BlockLen]
			w := bm.w[p*bm.BlockLen:][:bm.BlockLen]
			var d float64
			for i, v := range blk {
				d += w[i] * v
			}
			s += d
			p++
		}
	}
	return s
}

// EarlyMarginAt scores the window at anchor (ax, ay) with the
// truncated-block partial-margin early exit: block positions are
// evaluated in the precomputed descending-bound order, and as soon as
// the accumulated partial response plus the sound upper bound on
// everything remaining cannot exceed thresh, the window is rejected
// without touching its remaining blocks.
//
// The reject is provable — L2Hys blocks are non-negative with norm
// <= 1, so no evaluation order can lift the margin past the bound —
// and a window that survives all positions re-sums its stashed
// partials in canonical position order, making the returned margin
// bitwise identical to WindowMargin. Detection sets therefore match the full sweep byte for byte.
//
// partial is caller scratch of at least BW*BH floats (one slot per
// block position). The second return is true when the window was
// rejected early; the margin is then meaningless.
//
// The window sweep scores whole rows with EarlyMarginRow; this
// one-window form is the reference that scorer is tested against.
//
// lint:hotpath
func (bm *BlockModel) EarlyMarginAt(blocks []float64, lat Lattice, ax, ay int, thresh float64, partial []float64) (float64, bool) {
	rel := thresh - bm.Bias // bail when partial responses cannot exceed this
	acc := 0.0
	for k, p := range bm.order {
		cy := ay*lat.StepY + bm.ordPBY[k]*lat.BlockStride
		cx := ax*lat.StepX + bm.ordPBX[k]*lat.BlockStride
		blk := blocks[(cy*lat.NBX+cx)*bm.BlockLen:][:bm.BlockLen]
		w := bm.w[p*bm.BlockLen:][:bm.BlockLen]
		var d float64
		for i, v := range blk {
			d += w[i] * v
		}
		partial[p] = d
		acc += d
		if acc+bm.tail[k+1] <= rel {
			return 0, true
		}
	}
	// Canonical re-sum: same partials, index order — bitwise equal to
	// WindowMargin.
	m := bm.Bias
	for _, d := range partial[:len(bm.order)] {
		m += d
	}
	return m, false
}

// RowScratch is the reusable working set of EarlyMarginRow: the live
// list, the running partial-margin accumulators and the survivor list.
// One scratch serves one row at a time; buffers grow to the widest row
// scored and are then reused, so a steady-state sweep allocates
// nothing here.
type RowScratch struct {
	live []int         // indices into cands of the windows still alive
	acc  []float64     // acc[i]: candidate i's partial response so far
	out  []RowSurvivor // windows no bound rejected, in candidate order
}

// RowSurvivor is a window EarlyMarginRow did not reject: its anchor x
// and its full margin, bitwise EarlyMarginAt's. The margin may still
// be <= the threshold (the reject test carries a guard); callers apply
// the threshold as they would to EarlyMarginAt's result.
type RowSurvivor struct {
	AX     int
	Margin float64
}

// EarlyMarginRow is EarlyMarginAt over a whole lattice row, position
// major: the windows at anchors cands (ascending, any gaps) of lattice
// row ay all take block position order[0], then order[1], and so on,
// the way the PL's replicated window evaluators step in lockstep
// across a row of the Normalized-HOG memory. At each position the live
// windows' dot products run four at a time in one loop sharing the
// weight loads (dot4), and a window drops out as soon as its
// accumulated response plus the tail bound cannot exceed thresh.
//
// Per window, everything is EarlyMarginAt's, bit for bit: each dot is
// the same ascending-index add chain over the same block and weights,
// the partials accumulate in the same descending-bound order, and the
// reject test is the same comparison at the same depth. Interleaving
// only changes which independent chains share a loop, never the
// operations of any one chain. A survivor's margin is WindowMargin:
// the same dots summed in canonical position order, which is what
// EarlyMarginAt's re-sum of its stashed partials computes. Survivors
// are post-threshold windows, a sliver of the row, so recomputing
// their dots costs less than stashing every window's partials.
//
// The survivors are returned in candidate order; the slice aliases rs
// and is valid until its next use. The caller must have validated lat
// with CheckLattice, and every anchor in cands must lie in [0, NAX).
//
// lint:hotpath
func (bm *BlockModel) EarlyMarginRow(blocks []float64, lat Lattice, ay int, cands []int, thresh float64, rs *RowScratch) []RowSurvivor {
	rel := thresh - bm.Bias
	n := len(cands)
	rs.live = growInts(rs.live, n)
	live := rs.live
	for i := range live {
		live[i] = i
	}
	if cap(rs.acc) < n {
		rs.acc = make([]float64, n) // lint:alloc grows to the widest row once per scratch
	}
	acc := rs.acc[:n]
	clear(acc)
	bl := bm.BlockLen
	step := lat.StepX * bl
	for k, p := range bm.order {
		if len(live) == 0 {
			break
		}
		w := bm.w[p*bl:][:bl]
		cy := ay*lat.StepY + bm.ordPBY[k]*lat.BlockStride
		// Candidate anchor ax's block at this position starts at
		// base + ax*step floats.
		base := (cy*lat.NBX + bm.ordPBX[k]*lat.BlockStride) * bl
		j := 0
		for ; j+4 <= len(live); j += 4 {
			i0, i1, i2, i3 := live[j], live[j+1], live[j+2], live[j+3]
			d0, d1, d2, d3 := dot4(w,
				blocks[base+cands[i0]*step:], blocks[base+cands[i1]*step:],
				blocks[base+cands[i2]*step:], blocks[base+cands[i3]*step:])
			acc[i0] += d0
			acc[i1] += d1
			acc[i2] += d2
			acc[i3] += d3
		}
		for ; j < len(live); j++ {
			i0 := live[j]
			b0 := blocks[base+cands[i0]*step:][:len(w)]
			var d0 float64
			for i, wi := range w {
				d0 += wi * b0[i]
			}
			acc[i0] += d0
		}
		// Drop every window the bound now rejects — EarlyMarginAt's
		// test, negated as written so a NaN survives in both — with a
		// stable compaction, so the live list stays in candidate order.
		kept := 0
		for _, i := range live {
			if !(acc[i]+bm.tail[k+1] <= rel) {
				live[kept] = i
				kept++
			}
		}
		live = live[:kept]
	}
	out := rs.out[:0]
	for _, i := range live {
		out = append(out, RowSurvivor{AX: cands[i], Margin: bm.WindowMargin(blocks, lat, cands[i], ay)}) // lint:alloc grows to the widest row once per scratch
	}
	rs.out = out
	return out
}

// dot4 is four independent dot products of w against the leading
// len(w) floats of b0..b3, each the ascending-index add chain of a
// single dot, interleaved so the four chains overlap their add
// latencies: one window's chain alone leaves the core waiting on each
// add. It is kept out of line: inlined into the row scorer, the
// loop's registers spill and the counter's store/reload becomes the
// new critical path.
//
//go:noinline
func dot4(w, b0, b1, b2, b3 []float64) (d0, d1, d2, d3 float64) {
	b0, b1, b2, b3 = b0[:len(w)], b1[:len(w)], b2[:len(w)], b3[:len(w)]
	for i, wi := range w {
		d0 += wi * b0[i]
		d1 += wi * b1[i]
		d2 += wi * b2[i]
		d3 += wi * b3[i]
	}
	return d0, d1, d2, d3
}
