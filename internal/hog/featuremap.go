package hog

import (
	"context"
	"fmt"
	"slices"

	"advdet/internal/img"
	"advdet/internal/par"
)

// FeatureMap caches the two shared front-end stages of the paper's
// HOG pipeline — gradient computation and cell-histogram generation —
// for a whole image, so every sliding window (and every worker) reads
// one precomputed cell grid instead of recomputing both stages per
// window. This is exactly how the PL datapath works: the "HOG Memory"
// of Fig. 2 is filled once per frame and the downstream window
// evaluators only read it.
//
// Window descriptors assembled from the cache differ from per-crop
// Config.Extract only at window borders: the cache sees the true
// neighboring pixels where a cropped window replicates its own edge.
// That again matches the hardware, which never crops.
//
// A FeatureMap is immutable after construction and safe for
// concurrent use by any number of readers.
type FeatureMap struct {
	Cfg  Config
	W, H int // source image size in pixels

	cw, ch int       // cell-grid dimensions
	hist   []float64 // cell-major histograms, as Config.CellHistograms
}

// FeaturePass is one feature-map stage over any number of maps, the
// levels of a pyramid say: a flat list of (map, cell row) tasks that
// the caller runs as one par.Job on its own fan-out, so a whole
// pyramid costs one fan-out instead of one per level. A full map
// contributes every cell row, a dirty refresh only the rows holding
// dirty cells. Every task writes its own cell row, and each row is
// bitwise the same whichever worker runs it, so the pass is
// deterministic at every worker count.
//
// The zero value is ready; Reset empties it for the next pass, keeping
// its buffers. A pass is not safe for concurrent Adds.
type FeaturePass struct {
	maps  []featurePassMap
	tasks []passTask
}

// featurePassMap is one map of a FeaturePass and its inputs.
type featurePassMap struct {
	m     *FeatureMap
	g     *img.Gray
	dirty []bool // nil: every cell
}

// passTask is row row of the pass's entry at index ent.
type passTask struct{ ent, row int32 }

// Add sets m up for g under c and queues all of its cell rows: each
// row task zeroes and recomputes its cells, so reusing m's buffer
// never leaks state across frames. The map must not be read until the
// pass has run without error.
func (p *FeaturePass) Add(m *FeatureMap, c Config, g *img.Gray) {
	c.validate()
	cw, ch := c.CellsFor(g.W, g.H)
	m.Cfg, m.W, m.H, m.cw, m.ch = c, g.W, g.H, cw, ch
	if cw == 0 || ch == 0 {
		m.hist = m.hist[:0] // image smaller than one cell: empty grid
		return
	}
	if n := cw * ch * c.Bins; cap(m.hist) < n {
		m.hist = make([]float64, n)
	} else {
		m.hist = m.hist[:n]
	}
	if c.Bins == lutBins {
		ensureHistLUT()
	}
	p.add(m, g, nil)
}

// AddDirty queues a refresh of only the cells marked in dirty (a cw*ch
// row-major mask, as produced by TileMap.DirtyCellMask), leaving every
// other cell's histogram untouched from the previous full pass. The
// caller guarantees that unmarked cells' input pixels — including the
// one-pixel replicate-padded stencil border — are unchanged since that
// pass; the refreshed map is then bitwise identical to a full
// recompute. It fails, queueing nothing, when the config or image
// geometry differs from the cached pass or the config has no LUT path
// (SupportsDirtyRefresh). The pass reads dirty when it runs.
func (p *FeaturePass) AddDirty(m *FeatureMap, c Config, g *img.Gray, dirty []bool) error {
	c.validate()
	if c != m.Cfg || g.W != m.W || g.H != m.H {
		return fmt.Errorf("hog: dirty refresh of %dx%d %+v map with %dx%d %+v inputs", m.W, m.H, m.Cfg, g.W, g.H, c) // lint:alloc cold validation error path; callers invalidate and recompute fully
	}
	if c.Bins != lutBins {
		return fmt.Errorf("hog: dirty refresh requires the %d-bin LUT path, config has %d bins", lutBins, c.Bins) // lint:alloc cold validation error path
	}
	if len(dirty) != m.cw*m.ch {
		return fmt.Errorf("hog: dirty mask holds %d cells, grid has %dx%d", len(dirty), m.cw, m.ch) // lint:alloc cold validation error path
	}
	ensureHistLUT()
	p.add(m, g, dirty)
	return nil
}

// add queues the rows of m that the entry computes.
func (p *FeaturePass) add(m *FeatureMap, g *img.Gray, dirty []bool) {
	ent := int32(len(p.maps))
	p.maps = append(p.maps, featurePassMap{m: m, g: g, dirty: dirty}) // lint:alloc grows to the largest pyramid once, then reused across frames
	p.tasks = appendRows(p.tasks, ent, m.ch, m.cw, dirty)
}

// appendRows queues rows [0, rows) of entry ent, or with a dirty mask
// of width cells a row only when it holds a marked cell.
func appendRows(tasks []passTask, ent int32, rows, width int, dirty []bool) []passTask {
	for r := 0; r < rows; r++ {
		if dirty == nil || slices.Contains(dirty[r*width:(r+1)*width], true) {
			tasks = append(tasks, passTask{ent: ent, row: int32(r)}) // lint:alloc grows to the largest pyramid once, then reused across frames
		}
	}
	return tasks
}

// Len returns the number of row tasks queued.
func (p *FeaturePass) Len() int { return len(p.tasks) }

// Do computes row task i.
//
// lint:hotpath
func (p *FeaturePass) Do(_, i int) {
	t := p.tasks[i]
	e := &p.maps[t.ent]
	m, g, cy := e.m, e.g, int(t.row)
	c := m.Cfg
	if e.dirty != nil {
		for cx, d := range e.dirty[cy*m.cw : (cy+1)*m.cw] {
			if d {
				c.cellHistogramLUT(g.Pix, g.W, g.H, cx, cy, m.hist[(cy*m.cw+cx)*lutBins:][:lutBins])
			}
		}
		return
	}
	if c.Bins == lutBins && c.cellRowHistogramsAsm(g.Pix, g.W, g.H, cy, m.cw, m.hist) {
		return // the vector body stores every cell of the row
	}
	clear(m.hist[cy*m.cw*c.Bins : (cy+1)*m.cw*c.Bins]) // the Go bodies accumulate with +=
	if c.Bins == lutBins {
		// Fused LUT path: gradients and histogram weights come from
		// the per-(dx,dy) table in one pass, bitwise identical to the
		// scalar path below.
		c.cellRowHistogramsLUT(g.Pix, g.W, g.H, cy, m.cw, m.hist)
		return
	}
	c.cellRowHistograms(g, cy, m.cw, m.hist)
}

// Reset empties the pass, dropping its references to maps and images
// and keeping its buffers.
func (p *FeaturePass) Reset() {
	clear(p.maps)
	p.maps, p.tasks = p.maps[:0], p.tasks[:0]
}

// runPass runs a one-off pass on a fresh fan-out and resets it.
func runPass(ctx context.Context, workers int, job interface {
	par.Job
	Len() int
	Reset()
}) error {
	defer job.Reset()
	return new(par.Fanout).Run(ctx, workers, job.Len(), job)
}

// NewFeatureMap computes the cache serially.
func (c Config) NewFeatureMap(g *img.Gray) *FeatureMap {
	fm, _ := c.NewFeatureMapCtx(context.Background(), g, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return fm
}

// NewFeatureMapCtx computes the cache with cell rows fanned out across
// workers goroutines (workers <= 0 means NumCPU). The result is
// bitwise identical for every worker count. On cancellation the
// partial map is discarded and the context's error returned.
func (c Config) NewFeatureMapCtx(ctx context.Context, g *img.Gray, workers int) (*FeatureMap, error) {
	fm := &FeatureMap{}
	if err := fm.ComputeCtx(ctx, c, g, workers); err != nil {
		return nil, err
	}
	return fm, nil
}

// ComputeCtx fills m with the cache for g, reusing m's histogram
// buffer when it has sufficient capacity: a one-map FeaturePass on a
// one-off fan-out (a frame stack batches its levels into one pass
// instead). The computed map is bitwise identical to NewFeatureMapCtx
// at every worker count. On a non-nil error the map is partial and
// must not be read.
func (m *FeatureMap) ComputeCtx(ctx context.Context, c Config, g *img.Gray, workers int) error {
	var p FeaturePass
	p.Add(m, c, g)
	return runPass(ctx, workers, &p)
}

// SupportsDirtyRefresh reports whether ComputeDirtyCtx can refresh
// this configuration's cells selectively: only the fused LUT path has
// the per-cell recompute whose accumulation order is provably
// identical to the full pass. Other bin counts must recompute the
// whole map.
func (c Config) SupportsDirtyRefresh() bool { return c.Bins == lutBins }

// ComputeDirtyCtx refreshes only the cells marked in dirty, as
// FeaturePass.AddDirty describes, on a one-off fan-out. It fails,
// without touching the map, on the mismatches AddDirty refuses.
func (m *FeatureMap) ComputeDirtyCtx(ctx context.Context, c Config, g *img.Gray, workers int, dirty []bool) error {
	var p FeaturePass
	if err := p.AddDirty(m, c, g, dirty); err != nil {
		return err
	}
	return runPass(ctx, workers, &p)
}

// Aligned reports whether a window anchored at (x, y) lies on the
// cell grid, i.e. its descriptor can be assembled from the cache.
func (m *FeatureMap) Aligned(x, y int) bool {
	return x%m.Cfg.CellSize == 0 && y%m.Cfg.CellSize == 0
}

// Descriptor assembles the normalized HOG descriptor of the
// winW x winH window anchored at (x, y) from the cached cell
// histograms, reusing dst when it has sufficient capacity. It returns
// nil when the window is unaligned to the cell grid or not fully
// covered by it; the caller then falls back to direct extraction.
func (m *FeatureMap) Descriptor(x, y, winW, winH int, dst []float64) []float64 {
	c := m.Cfg
	if x < 0 || y < 0 || x+winW > m.W || y+winH > m.H || !m.Aligned(x, y) {
		return nil
	}
	bw, bh := c.BlocksFor(winW, winH)
	if bw == 0 || bh == 0 {
		return nil
	}
	cx0, cy0 := x/c.CellSize, y/c.CellSize
	// Cells spanned by the window's block grid; the grid floors away
	// partial border cells, so verify coverage inside the cached grid.
	spanW := (bw-1)*c.BlockStride + c.BlockCells
	spanH := (bh-1)*c.BlockStride + c.BlockCells
	if cx0+spanW > m.cw || cy0+spanH > m.ch {
		return nil
	}
	blockLen := c.BlockCells * c.BlockCells * c.Bins
	n := bw * bh * blockLen
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	k := 0
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			blk := dst[k : k+blockLen]
			j := 0
			for dy := 0; dy < c.BlockCells; dy++ {
				row := ((cy0+by*c.BlockStride+dy)*m.cw + cx0 + bx*c.BlockStride) * c.Bins
				for dx := 0; dx < c.BlockCells; dx++ {
					copy(blk[j:j+c.Bins], m.hist[row+dx*c.Bins:row+(dx+1)*c.Bins])
					j += c.Bins
				}
			}
			l2hys(blk, c.ClipL2Hys)
			k += blockLen
		}
	}
	return dst
}
