package hog

import (
	"context"
	"fmt"

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

	fan par.Fanout // fans every compute stage's rows out
	job featureJob // the stage fan is running
}

// Feature-map compute stages, each fanned out one row per index.
const (
	stageLUT      = iota // fused gradient + histogram cell rows
	stageGradient        // gradient pixel rows
	stageHist            // cell-histogram rows from the gradient planes
	stageDirty           // LUT refresh of a row's dirty cells
)

// featureJob is one compute stage of a FeatureMap: the stage's inputs,
// set for the duration of one fan-out.
type featureJob struct {
	m        *FeatureMap
	stage    int
	g        *img.Gray
	mag, ang []float32
	binWidth float64
	dirty    []bool
}

// Do computes row i of the job's stage.
//
// lint:hotpath
func (j *featureJob) Do(_, i int) {
	m, c, g := j.m, j.m.Cfg, j.g
	switch j.stage {
	case stageLUT:
		if !c.cellRowHistogramsAsm(g.Pix, g.W, g.H, i, m.cw, m.hist) {
			c.cellRowHistogramsLUT(g.Pix, g.W, g.H, i, m.cw, m.hist)
		}
	case stageGradient:
		gradientRow(g, i, j.mag, j.ang)
	case stageHist:
		c.cellRowHistograms(g.W, i, m.cw, j.mag, j.ang, j.binWidth, m.hist)
	case stageDirty:
		for cx, d := range j.dirty[i*m.cw : (i+1)*m.cw] {
			if d {
				c.cellHistogramLUT(g.Pix, g.W, g.H, cx, i, m.hist[(i*m.cw+cx)*lutBins:][:lutBins])
			}
		}
	}
}

// run fans stage j over n rows on m's own fan-out, dropping the job's
// references to the caller's planes afterwards.
func (m *FeatureMap) run(ctx context.Context, workers, n int, j featureJob) error {
	m.job = j
	m.job.m = m
	err := m.fan.Run(ctx, workers, n, &m.job)
	m.job = featureJob{}
	return err
}

// Scratch holds the reusable intermediate buffers of feature-map
// construction (the per-pixel gradient planes), so a steady-state scan
// loop can recompute caches every frame without reallocating. The zero
// value is ready: buffers grow on first use and are reused afterwards.
// A Scratch serves one computation at a time; it is not safe for
// concurrent use by multiple computations.
type Scratch struct {
	mag, ang []float32
}

// grads returns the gradient planes sized for n pixels, growing the
// backing arrays only when capacity is insufficient.
func (s *Scratch) grads(n int) (mag, ang []float32) {
	if cap(s.mag) < n {
		s.mag = make([]float32, n)
	}
	if cap(s.ang) < n {
		s.ang = make([]float32, n)
	}
	return s.mag[:n], s.ang[:n]
}

// NewFeatureMap computes the cache serially.
func (c Config) NewFeatureMap(g *img.Gray) *FeatureMap {
	fm, _ := c.NewFeatureMapCtx(context.Background(), g, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return fm
}

// NewFeatureMapCtx computes the cache with both stages fanned out
// across workers goroutines (workers <= 0 means NumCPU): gradient
// rows first, then cell-histogram rows. The result is bitwise
// identical for every worker count. On cancellation the partial map
// is discarded and the context's error returned.
func (c Config) NewFeatureMapCtx(ctx context.Context, g *img.Gray, workers int) (*FeatureMap, error) {
	fm := &FeatureMap{}
	if err := fm.ComputeCtx(ctx, c, g, workers, nil); err != nil {
		return nil, err
	}
	return fm, nil
}

// ComputeCtx fills m with the cache for g, reusing m's histogram
// buffer and s's gradient planes when they have sufficient capacity
// (s may be nil for one-shot use). The computed map is bitwise
// identical to NewFeatureMapCtx at every worker count; buffer reuse
// never leaks state because the histogram is zeroed before
// accumulation and the gradient planes are fully overwritten. On a
// non-nil error the map is partial and must not be read.
func (m *FeatureMap) ComputeCtx(ctx context.Context, c Config, g *img.Gray, workers int, s *Scratch) error {
	c.validate()
	cw, ch := c.CellsFor(g.W, g.H)
	m.Cfg, m.W, m.H, m.cw, m.ch = c, g.W, g.H, cw, ch
	if cw == 0 || ch == 0 {
		m.hist = m.hist[:0] // image smaller than one cell: empty grid
		return ctx.Err()
	}
	n := cw * ch * c.Bins
	if cap(m.hist) < n {
		m.hist = make([]float64, n)
	} else {
		m.hist = m.hist[:n]
		clear(m.hist) // cell rows accumulate with +=
	}
	if c.Bins == lutBins {
		// Fused LUT path: gradients and histogram weights come from
		// the per-(dx,dy) table in one pass, bitwise identical to the
		// two-stage scalar path below.
		ensureHistLUT()
		return m.run(ctx, workers, ch, featureJob{stage: stageLUT, g: g})
	}
	if s == nil {
		s = &Scratch{}
	}
	mag, ang := s.grads(g.W * g.H)
	if err := m.run(ctx, workers, g.H, featureJob{stage: stageGradient, g: g, mag: mag, ang: ang}); err != nil {
		return err
	}
	return m.run(ctx, workers, ch, featureJob{stage: stageHist, g: g, mag: mag, ang: ang, binWidth: 180.0 / float64(c.Bins)})
}

// SupportsDirtyRefresh reports whether ComputeDirtyCtx can refresh
// this configuration's cells selectively: only the fused LUT path has
// the per-cell recompute whose accumulation order is provably
// identical to the full pass. Other bin counts must recompute the
// whole map.
func (c Config) SupportsDirtyRefresh() bool { return c.Bins == lutBins }

// ComputeDirtyCtx refreshes only the cells marked in dirty (a cw*ch
// row-major mask, as produced by TileMap.DirtyCellMask), leaving every
// other cell's histogram untouched from the previous ComputeCtx. The
// caller guarantees that unmarked cells' input pixels — including the
// one-pixel replicate-padded stencil border — are unchanged since that
// pass; the refreshed map is then bitwise identical to a full
// recompute at every worker count. It fails, without touching the map,
// when the config or image geometry differs from the cached pass or
// the config has no LUT path (SupportsDirtyRefresh).
//
// lint:hotpath
func (m *FeatureMap) ComputeDirtyCtx(ctx context.Context, c Config, g *img.Gray, workers int, dirty []bool) error {
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
	return m.run(ctx, workers, m.ch, featureJob{stage: stageDirty, g: g, dirty: dirty})
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
