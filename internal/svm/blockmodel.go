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

	lastModel *Model // Init memo: skip the reshape when nothing changed
}

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
// allocations. Models are treated as immutable once trained (the
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
// so the window scorers (WindowMargin, PlaneLayout) can skip bounds
// checks on the hot path.
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
// agree to floating-point reassociation (~1e-9 relative). Every
// product is rounded before its add, as in the plane kernels, so no
// target fuses them and PlaneLayout's margins equal this one bit for
// bit. The caller must have validated lat with CheckLattice.
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
				d += float64(w[i] * v)
			}
			s += d
			p++
		}
	}
	return s
}
