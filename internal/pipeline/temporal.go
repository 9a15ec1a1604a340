package pipeline

import (
	"advdet/internal/fixed"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
)

// TemporalCache carries a frame stack's work across frames so a frame
// only recomputes what the camera changed. Each pyramid level is split
// into cell-aligned tiles (hog.TileMap), fingerprinted per frame, and
// the dirty tiles are dilated outward — one-cell halo to cells, block
// span to blocks, a window's blocks to window rows and windows — so every
// value reused or refreshed sees exactly the inputs a cold build would
// read, making cached output byte-identical to a full recompute (up to
// 64-bit fingerprint collisions; see hog.TileMap). The full-rescan
// path is always kept: any configuration or geometry change falls back
// to a cold build of the affected state.
//
// The cache has two parts. The stack part — tile fingerprints, the
// per-level refresh modes, dirty-cell prefixes and dirty-block masks —
// belongs to the FrameStack it owns (Stack) and is shared by every
// sweep over it; the stack's feature maps, block grids and quantized
// planes persist with it. The sweep part is keyed by the sweep (model,
// window, stride, threshold, datapath): each sweep keeps its own
// window-row detections, valid only when that same sweep ran on the
// previous frame. A day/dusk model select therefore keeps the
// stack warm while never serving one model's rows to another.
//
// A cache binds its stack to one frame sequence and must never be
// shared — by two streams, or by two detectors scanning different
// sequences. The zero value is not ready; use NewTemporalCache. Not
// safe for concurrent use.
type TemporalCache struct {
	stack FrameStack
	tile  int
	sig   stackSig
	valid bool

	// Stack part, per pyramid level. mode is this frame's refresh mode;
	// for tcPartial levels cellPrefix holds an integral image over the
	// dirty-cell mask, with cw/ch its cell-grid dims, so the sweeps
	// answer "is this window's cell rectangle clean?" in O(1), and
	// cellMask/blockMask/dirtyBlocks the dirty-cell mask and its
	// dilation to blocks, which the stack's feature and block passes
	// read after every level is observed.
	tiles       []*hog.TileMap
	mode        []int
	cw, ch      []int
	cellPrefix  [][]int32
	cellMask    [][]bool
	blockMask   [][]bool
	dirtyBlocks []int

	sweeps []*sweepPart

	frame TemporalStats // current frame's tile accounting
	stats TemporalStats // cumulative since construction / Invalidate
}

// sweepPart is one sweep's cross-frame state: its window-row
// detections, one row per row task (the task list is a pure function
// of the signature, so the task index is stable across frames). The
// rows are double-buffered: a frame serves from rows while storeRows
// writes that frame's rows into spare, and the two then swap.
type sweepPart struct {
	sig sweepSig
	// gen is the stack generation of the frame the rows were computed
	// on (0 = none).
	gen         uint64
	rows, spare partRows
}

// partRows is one frame's window rows in one flat buffer: row ti is
// dets[end[ti-1]:end[ti]] (from 0 for the first row).
type partRows struct {
	dets []Detection
	end  []int
}

// n returns the number of rows held.
func (r *partRows) n() int { return len(r.end) }

// row returns row ti's detections. The slice aliases the buffer.
func (r *partRows) row(ti int) []Detection {
	lo := 0
	if ti > 0 {
		lo = r.end[ti-1]
	}
	return r.dets[lo:r.end[ti]:r.end[ti]]
}

// reset empties the buffer, keeping its capacity.
func (r *partRows) reset() {
	r.dets, r.end = r.dets[:0], r.end[:0]
}

// maxSweepParts bounds the sweep parts one cache keeps: a System runs
// at most three sweeps (day, dusk, pedestrian) over its stack.
const maxSweepParts = 4

// TemporalStats is the tile accounting of a temporal cache: Hits are
// tiles reused unchanged, Misses are tiles whose content changed since
// the previous frame, Refreshes are tiles hashed with no comparable
// fingerprint (first frame, invalidation, geometry change). Frames
// counts frames served.
type TemporalStats struct {
	Frames    int
	Hits      int
	Misses    int
	Refreshes int
}

// HitRate returns the fraction of tiles reused unchanged, in [0, 1];
// 0 when no tiles have been observed.
func (s TemporalStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Refreshes
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// stackSig keys the stack part outside the pixels themselves: any
// field changing means cached levels may describe different geometry,
// so every fingerprint is discarded. The frame dimensions are included
// because every level's geometry derives from them — which also covers
// the shrink seam where a narrower frame keeps the same tile count
// while the cell grid changes shape.
type stackSig struct {
	cfg   hog.Config
	scale float64
	w, h  int
}

// sweepSig keys a sweep part: any field changing means cached rows
// may describe a different window lattice or model.
type sweepSig struct {
	model              *svm.Model
	cfg                hog.Config
	winW, winH, stride int
	scale, thresh      float64
	quant              bool
	w, h               int
}

// Per-level refresh modes derived from the tile fingerprints.
const (
	tcFull    = iota // recompute the level's whole stack
	tcPartial        // refresh only dirty cells and blocks
	tcClean          // reuse everything; nothing changed
)

// NewTemporalCache returns an empty cache using the default 64-px
// tile size. Attach it to one detector's Temporal field, or sweep its
// Stack directly.
func NewTemporalCache() *TemporalCache {
	tc := &TemporalCache{tile: hog.DefaultTileSize}
	tc.stack.tc = tc
	return tc
}

// Stack returns the frame stack whose work the cache carries across
// frames.
func (tc *TemporalCache) Stack() *FrameStack { return &tc.stack }

// Stats returns the cumulative tile accounting.
func (tc *TemporalCache) Stats() TemporalStats { return tc.stats }

// FrameStats returns the tile accounting of the most recent frame.
func (tc *TemporalCache) FrameStats() TemporalStats { return tc.frame }

// Invalidate discards every fingerprint: the next frame builds cold,
// and no sweep reuses rows across it. Callers invalidate on
// reconfiguration and on any out-of-band reason to distrust
// cross-frame continuity; configuration and geometry changes are
// detected automatically.
func (tc *TemporalCache) Invalidate() {
	tc.valid = false
}

// begin opens one frame for the stack part: a signature mismatch (or
// an explicit Invalidate) discards every fingerprint.
func (tc *TemporalCache) begin(sig stackSig) {
	if !tc.valid || sig != tc.sig {
		tc.sig = sig
		for _, t := range tc.tiles {
			t.Invalidate()
		}
	}
	tc.valid = true
	tc.frame = TemporalStats{Frames: 1}
	tc.stats.Frames++
}

// part returns the sweep part for sig, claiming the least recently
// used one when the sweep has none yet.
func (tc *TemporalCache) part(sig sweepSig) *sweepPart {
	var lru *sweepPart
	for _, p := range tc.sweeps {
		if p.sig == sig {
			return p
		}
		if lru == nil || p.gen < lru.gen {
			lru = p
		}
	}
	if len(tc.sweeps) < maxSweepParts || lru == nil {
		lru = new(sweepPart) // lint:alloc once per sweep signature
		tc.sweeps = append(tc.sweeps, lru)
	}
	lru.sig, lru.gen = sig, 0
	lru.rows.reset()
	return lru
}

// observe fingerprints level i and derives its refresh mode. prev
// reports whether the level's stack was current on the previous frame;
// otherwise its tiles have nothing comparable to match. For tcPartial
// the dirty-cell mask (with its one-cell halo) is left in
// tc.cellMask[i] for the feature refresh, its integral image in
// tc.cellPrefix[i] for the sweeps' window reuse checks, and its
// block dilation in tc.blockMask[i].
func (tc *TemporalCache) observe(i int, level *img.Gray, c hog.Config, prev bool) int {
	for len(tc.tiles) <= i {
		tc.tiles = append(tc.tiles, hog.NewTileMap(tc.tile))
		tc.mode = append(tc.mode, tcFull)
		tc.cw = append(tc.cw, 0)
		tc.ch = append(tc.ch, 0)
		tc.cellPrefix = append(tc.cellPrefix, nil)
		tc.cellMask = append(tc.cellMask, nil)
		tc.blockMask = append(tc.blockMask, nil)
		tc.dirtyBlocks = append(tc.dirtyBlocks, 0)
	}
	if !prev || !tc.valid {
		tc.tiles[i].Invalidate()
	}
	mode := tc.observeTiles(i, level, c)
	tc.mode[i] = mode
	if mode != tcPartial {
		return mode
	}
	cw, ch := c.CellsFor(level.W, level.H)
	tc.cw[i], tc.ch[i] = cw, ch
	pre := growI32(tc.cellPrefix[i], (cw+1)*(ch+1))
	tc.cellPrefix[i] = pre
	for x := 0; x <= cw; x++ {
		pre[x] = 0
	}
	for y := 0; y < ch; y++ {
		rowSum := int32(0)
		src := tc.cellMask[i][y*cw : (y+1)*cw]
		dst := pre[(y+1)*(cw+1):]
		above := pre[y*(cw+1):]
		dst[0] = 0
		for x := 0; x < cw; x++ {
			if src[x] {
				rowSum++
			}
			dst[x+1] = above[x+1] + rowSum
		}
	}
	nbx, nby := max(cw-c.BlockCells+1, 0), max(ch-c.BlockCells+1, 0)
	tc.blockMask[i] = growBool(tc.blockMask[i], nbx*nby)
	tc.dirtyBlocks[i] = hog.DilateCellsToBlocks(c, tc.cellMask[i], cw, nbx, nby, tc.blockMask[i])
	return mode
}

// cellRectClean reports whether the half-open cell rectangle
// [cx0,cx1) x [cy0,cy1) of a tcPartial level contains no dirty cell
// this frame, clamped to the full-cell grid. A rectangle entirely off
// the grid answers false: no flag covers it, so callers must rescore.
// Ragged-edge pixels beyond the last full cell are safe to clamp away
// because hog.TileMap.DirtyCellMask clamps their tiles onto the last
// cell row/column, which a window reaching the ragged edge always
// overlaps.
//
// lint:hotpath
func (tc *TemporalCache) cellRectClean(level, cx0, cy0, cx1, cy1 int) bool {
	cw, ch := tc.cw[level], tc.ch[level]
	if cx1 > cw {
		cx1 = cw
	}
	if cy1 > ch {
		cy1 = ch
	}
	if cx0 >= cx1 || cy0 >= cy1 {
		return false
	}
	p := tc.cellPrefix[level]
	w := cw + 1
	return p[cy1*w+cx1]-p[cy1*w+cx0]-p[cy0*w+cx1]+p[cy0*w+cx0] == 0
}

// observeTiles runs the tile fingerprint pass behind observe.
func (tc *TemporalCache) observeTiles(i int, level *img.Gray, c hog.Config) int {
	if !c.AlignedTile(tc.tile) {
		// Tiles off the cell lattice would make the tile-to-cell
		// dilation unsound; hash nothing and scan cold.
		return tcFull
	}
	misses, refreshes, total := tc.tiles[i].Update(level)
	tc.frame.Hits += total - misses - refreshes
	tc.frame.Misses += misses
	tc.frame.Refreshes += refreshes
	tc.stats.Hits += total - misses - refreshes
	tc.stats.Misses += misses
	tc.stats.Refreshes += refreshes
	dirty := misses + refreshes
	switch {
	case dirty == 0:
		return tcClean
	case dirty == total || !c.SupportsDirtyRefresh():
		return tcFull
	}
	cw, ch := c.CellsFor(level.W, level.H)
	if cw == 0 || ch == 0 {
		return tcFull
	}
	tc.cellMask[i] = growBool(tc.cellMask[i], cw*ch)
	tc.tiles[i].DirtyCellMask(c, cw, ch, tc.cellMask[i])
	return tcPartial
}

// rowServable reports whether one window row's cached detections are
// bitwise current. The row is servable when its level is wholly clean,
// or when none of the cell rows [cy0, cy1) its windows' blocks read is
// dirty this frame: a window's score reads only its blocks. Row
// granularity is conservative —
// the whole cell-row band must be clean, not just the window's columns
// — an O(1) prefix query; stage 3 falls back to per-window queries
// when the band is dirty but individual windows sit clear of it.
//
// lint:hotpath
func (tc *TemporalCache) rowServable(level, cy0, cy1 int) bool {
	switch tc.mode[level] {
	case tcClean:
		return true
	case tcPartial:
		return tc.cellRectClean(level, 0, cy0, tc.cw[level], cy1)
	default:
		return false
	}
}

// storeRows copies this frame's per-row output into the spare buffer
// — results may alias the current one, which this frame served from —
// makes it current and stamps the part with the frame it describes.
//
// lint:hotpath
func (sp *sweepPart) storeRows(results [][]Detection, gen uint64) {
	next := &sp.spare
	next.reset()
	for _, r := range results {
		next.dets = append(next.dets, r...)         // lint:alloc grows to the high-water mark once per signature
		next.end = append(next.end, len(next.dets)) // lint:alloc grows to the task count once per signature
	}
	sp.rows, sp.spare = sp.spare, sp.rows
	sp.gen = gen
}

// requantDirtyBlocks requantizes only the dirty blocks' Q1.14 spans
// in place. QuantizeQ14 is elementwise, so the per-block pass is
// bitwise identical to requantizing the whole plane.
//
// lint:hotpath
func requantDirtyBlocks(q []int16, data []float64, blockLen int, dirty []bool) {
	for b, d := range dirty {
		if !d {
			continue
		}
		off := b * blockLen
		fixed.QuantizeQ14(q[off:off+blockLen:off+blockLen], data[off:off+blockLen])
	}
}

// growBool returns buf resized to n entries, reusing its backing
// array when possible. Contents are unspecified; callers overwrite.
func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n) // lint:alloc grows once to the largest level, then reused across frames
	}
	return buf[:n]
}

// growI32 returns buf resized to n entries, reusing its backing
// array when possible. Contents are unspecified; callers overwrite.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
