package hog

import (
	"context"
	"fmt"
)

// BlockGrid is the per-level output of the paper's block-normalization
// stage computed exactly once: the L2Hys-normalized vector of every
// cell-aligned BlockCells x BlockCells block of a FeatureMap's cell
// grid, at every cell offset. Where FeatureMap is the software
// analogue of the "HOG Memory" of Fig. 2, BlockGrid is the
// "Normalized HOG Memory" that feeds the SVM stage: the hardware fills
// it once per frame and every overlapping window evaluator only reads
// it, which is why the descriptor path's per-window copy+normalize is
// pure waste — a block shared by ten windows was being renormalized
// ten times.
//
// Blocks are indexed by their top-left cell (cx, cy), so a window
// anchored at cell (cx0, cy0) finds its window-relative block (bx, by)
// at grid position (cx0+bx*BlockStride, cy0+by*BlockStride) for any
// anchor lattice. Each stored vector is bitwise identical to the
// corresponding block of FeatureMap.Descriptor (same copy order, same
// l2hys), so a descriptor assembled from the grid equals the
// descriptor path byte for byte.
//
// A BlockGrid is immutable between ComputeCtx calls and safe for
// concurrent readers.
type BlockGrid struct {
	Cfg      Config
	nbx, nby int // blocks per axis (one per cell offset)
	blockLen int
	norm     []float64 // (cy*nbx+cx)*blockLen holds block (cx, cy)
}

// BlockPass is one block-normalization stage over any number of
// grids, the levels of a pyramid say: a flat list of (grid, block row)
// tasks that the caller runs as one par.Job on its own fan-out, as
// FeaturePass does for the feature maps. A full grid contributes every
// block row, a dirty refresh only the rows holding dirty blocks. Every
// task writes its own block row of its own grid, so the pass is
// deterministic at every worker count.
//
// The zero value is ready; Reset empties it for the next pass, keeping
// its buffers. A pass is not safe for concurrent Adds.
type BlockPass struct {
	grids []blockPassGrid
	tasks []passTask
}

// blockPassGrid is one grid of a BlockPass and its inputs.
type blockPassGrid struct {
	bg    *BlockGrid
	fm    *FeatureMap
	dirty []bool // nil: every block
}

// Add sets bg up for fm and queues all of its block rows. Every block
// is fully overwritten, so reusing bg's buffer never leaks state
// across frames. fm must be complete when the pass runs, and bg must
// not be read until the pass has run without error.
func (p *BlockPass) Add(bg *BlockGrid, fm *FeatureMap) {
	c := fm.Cfg
	bg.Cfg = c
	bg.blockLen = c.BlockCells * c.BlockCells * c.Bins
	bg.nbx, bg.nby = fm.cw-c.BlockCells+1, fm.ch-c.BlockCells+1
	if bg.nbx <= 0 || bg.nby <= 0 {
		bg.nbx, bg.nby = 0, 0
		bg.norm = bg.norm[:0] // grid smaller than one block
		return
	}
	if n := bg.nbx * bg.nby * bg.blockLen; cap(bg.norm) < n {
		bg.norm = make([]float64, n)
	} else {
		bg.norm = bg.norm[:n]
	}
	p.add(bg, fm, nil)
}

// AddDirty queues a refresh of only the blocks marked in dirty (an
// nbx*nby row-major mask, as produced by DilateCellsToBlocks), leaving
// every other block's normalized vector untouched from the previous
// full pass against the same feature map. The caller guarantees that
// unmarked blocks' cells are unchanged since that pass; the refreshed
// grid is then bitwise identical to a full recompute. It fails,
// queueing nothing, on any geometry mismatch with the cached pass.
func (p *BlockPass) AddDirty(bg *BlockGrid, fm *FeatureMap, dirty []bool) error {
	c := fm.Cfg
	nbx, nby := fm.cw-c.BlockCells+1, fm.ch-c.BlockCells+1
	if c != bg.Cfg || nbx != bg.nbx || nby != bg.nby {
		return fmt.Errorf("hog: dirty refresh of %dx%d block grid from %dx%d cell map", bg.nbx, bg.nby, fm.cw, fm.ch) // lint:alloc cold validation error path; callers invalidate and recompute fully
	}
	if len(dirty) != nbx*nby {
		return fmt.Errorf("hog: dirty mask holds %d blocks, grid has %dx%d", len(dirty), nbx, nby) // lint:alloc cold validation error path
	}
	p.add(bg, fm, dirty)
	return nil
}

// add queues the rows of bg that the entry computes.
func (p *BlockPass) add(bg *BlockGrid, fm *FeatureMap, dirty []bool) {
	ent := int32(len(p.grids))
	p.grids = append(p.grids, blockPassGrid{bg: bg, fm: fm, dirty: dirty}) // lint:alloc grows to the largest pyramid once, then reused across frames
	p.tasks = appendRows(p.tasks, ent, bg.nby, bg.nbx, dirty)
}

// Len returns the number of row tasks queued.
func (p *BlockPass) Len() int { return len(p.tasks) }

// Do normalizes row task i.
//
// lint:hotpath
func (p *BlockPass) Do(_, i int) {
	t := p.tasks[i]
	e := &p.grids[t.ent]
	bg, cy := e.bg, int(t.row)
	if e.dirty == nil {
		if !bg.normalizeRowAsm(e.fm, cy) {
			bg.normalizeTail(e.fm, 0, cy)
		}
		return
	}
	for cx, d := range e.dirty[cy*bg.nbx : (cy+1)*bg.nbx] {
		if d {
			bg.normalizeBlock(e.fm, cx, cy)
		}
	}
}

// Reset empties the pass, dropping its references to grids and maps
// and keeping its buffers.
func (p *BlockPass) Reset() {
	clear(p.grids)
	p.grids, p.tasks = p.grids[:0], p.tasks[:0]
}

// NewBlockGridCtx computes the normalized block grid of fm with block
// rows fanned out across workers goroutines (workers <= 0 means
// NumCPU). The result is bitwise identical for every worker count; on
// cancellation the partial grid is discarded and the context's error
// returned.
func NewBlockGridCtx(ctx context.Context, fm *FeatureMap, workers int) (*BlockGrid, error) {
	bg := &BlockGrid{}
	if err := bg.ComputeCtx(ctx, fm, workers); err != nil {
		return nil, err
	}
	return bg, nil
}

// ComputeCtx fills bg from fm, reusing bg's buffer when it has
// sufficient capacity: a one-grid BlockPass on a one-off fan-out (a
// frame stack batches its levels into one pass instead). On a non-nil
// error the grid is partial and must not be read.
func (bg *BlockGrid) ComputeCtx(ctx context.Context, fm *FeatureMap, workers int) error {
	var p BlockPass
	p.Add(bg, fm)
	return runPass(ctx, workers, &p)
}

// normalizeTail copies and L2Hys-normalizes the blocks of block row cy
// from cx0 on: with cx0 = 0 the whole row, the portable body and the
// oracle of the vector one (normalizeRowAsm). Each row reads the
// shared histogram and writes a disjoint slice of norm, which is what
// lets a BlockPass fan rows across workers.
//
// The sum of squares for the first l2hys pass is accumulated during
// the copy itself, in l2hys's element order, so the fused result is
// bitwise identical to copy-then-normalize while touching each element
// one fewer time. Blocks go in adjacent pairs (normalizePair), whose
// two sum-of-squares chains interleave; an odd last block takes
// normalizeBlock. Each block's arithmetic is normalizeBlock's, so the
// pairing is bitwise neutral.
//
// lint:hotpath
func (bg *BlockGrid) normalizeTail(fm *FeatureMap, cx0, cy int) {
	cx := cx0
	for ; cx+1 < bg.nbx; cx += 2 {
		bg.normalizePair(fm, cx, cy)
	}
	if cx < bg.nbx {
		bg.normalizeBlock(fm, cx, cy)
	}
}

// normalizePair is normalizeBlock for the two adjacent blocks (cx, cy)
// and (cx+1, cy) at once. A block's first and second l2hys sums of
// squares are each one float64 add chain, so one block at a time
// leaves the core waiting on add latency; here the two blocks' chains
// run side by side in one loop. Every chain still adds the same values
// in the same ascending order as normalizeBlock and l2hysSS, so both
// vectors are bitwise identical to normalizing the blocks one by one.
//
// lint:hotpath
func (bg *BlockGrid) normalizePair(fm *FeatureMap, cx, cy int) {
	c := bg.Cfg
	n := bg.blockLen
	a := bg.norm[(cy*bg.nbx+cx)*n:][:n]
	b := bg.norm[(cy*bg.nbx+cx+1)*n:][:n]
	j := 0
	var ssa, ssb float64
	for dy := 0; dy < c.BlockCells; dy++ {
		// Block cx+1's cells start one cell after block cx's.
		row := ((cy+dy)*fm.cw + cx) * c.Bins
		for dx := 0; dx < c.BlockCells; dx++ {
			srcA := fm.hist[row+dx*c.Bins:][:c.Bins]
			srcB := fm.hist[row+(dx+1)*c.Bins:][:c.Bins]
			da, db := a[j:][:c.Bins], b[j:][:c.Bins]
			for i, x := range srcA {
				y := srcB[i]
				da[i], db[i] = x, y
				ssa += float64(x * x)
				ssb += float64(y * y)
			}
			j += c.Bins
		}
	}
	l2hysPair(a, b, c.ClipL2Hys, ssa, ssb)
}

// normalizeBlock copies and L2Hys-normalizes the single block whose
// top-left cell is (cx, cy) — the per-block body of normalizeTail,
// byte for byte: a block's vector is a pure function of its own cells,
// so refreshing one block in place is bitwise identical to the full
// row pass. The temporal scan cache leans on exactly that.
//
// lint:hotpath
func (bg *BlockGrid) normalizeBlock(fm *FeatureMap, cx, cy int) {
	c := bg.Cfg
	blk := bg.norm[(cy*bg.nbx+cx)*bg.blockLen:][:bg.blockLen]
	j := 0
	var ss float64
	for dy := 0; dy < c.BlockCells; dy++ {
		row := ((cy+dy)*fm.cw + cx) * c.Bins
		for dx := 0; dx < c.BlockCells; dx++ {
			src := fm.hist[row+dx*c.Bins : row+(dx+1)*c.Bins]
			for i, x := range src {
				blk[j+i] = x
				ss += float64(x * x)
			}
			j += c.Bins
		}
	}
	l2hysSS(blk, c.ClipL2Hys, ss)
}

// ComputeDirtyCtx refreshes only the blocks marked in dirty, as
// BlockPass.AddDirty describes, on a one-off fan-out. It fails,
// without touching the grid, on the mismatches AddDirty refuses.
func (bg *BlockGrid) ComputeDirtyCtx(ctx context.Context, fm *FeatureMap, workers int, dirty []bool) error {
	var p BlockPass
	if err := p.AddDirty(bg, fm, dirty); err != nil {
		return err
	}
	return runPass(ctx, workers, &p)
}

// Dims returns the block-grid dimensions (blocks per axis).
func (bg *BlockGrid) Dims() (nbx, nby int) { return bg.nbx, bg.nby }

// BlockLen returns the length of one normalized block vector.
func (bg *BlockGrid) BlockLen() int { return bg.blockLen }

// Block returns the normalized vector of the block whose top-left cell
// is (cx, cy). The slice aliases the grid and must not be mutated.
func (bg *BlockGrid) Block(cx, cy int) []float64 {
	return bg.norm[(cy*bg.nbx+cx)*bg.blockLen:][:bg.blockLen]
}

// Data returns the whole grid as one flat block-major slice, the form
// the SVM block-response stage consumes. It aliases the grid and must
// not be mutated.
func (bg *BlockGrid) Data() []float64 { return bg.norm }
