package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"advdet/internal/fixed"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/par"
)

// FrameStack is one frame's HOG front end: the gray image, its pyramid
// levels, and each level's gradient/cell-histogram FeatureMap, L2Hys
// BlockGrid and Q1.14 quantized block plane. It is the software form
// of the PL's HOG and Normalized-HOG memories (DESIGN §11): written
// once per frame and only read by the window sweeps — vehicle and
// pedestrian alike — so a frame that runs two sweeps pays for one
// front end.
//
// The stack is built lazily. Begin (or BeginRGB) opens a frame; each
// sweep then brings the stack up to what its window needs: the levels
// its window fits (so the pyramid is the union over the frame's
// sweeps) with their feature maps and block grids, and quantized
// planes only where the sweep reads them. A product already made this
// frame is never recomputed. The first sweep fixes the frame's HOG
// configuration and pyramid scale; a later sweep with a different
// front end is an error.
//
// With a TemporalCache attached (TemporalCache.Stack), products also
// carry across frames and a frame recomputes only what its dirty tiles
// invalidate. Every product is stamped with the frame generation it was
// made at, and only a product made on the immediately preceding frame
// is reused, so a level or plane that skipped a frame is rebuilt cold.
//
// A stack serves one frame sequence; it is not safe for concurrent
// use. Sweeps run over it one after another.
type FrameStack struct {
	tc *TemporalCache // nil: every frame is built cold

	gen  uint64    // frame generation, bumped by Begin
	src  *img.Gray // this frame's source (level 0)
	gray *img.Gray // stack-owned RGB-to-gray buffer (BeginRGB)

	// The frame's front end, fixed by its first sweep.
	front bool
	cfg   hog.Config
	scale float64

	sizes, spare [][2]int // level sizes built this frame; scratch list
	built        int      // levels resized this frame

	levels []*img.Gray
	maps   []*hog.FeatureMap
	grids  []*hog.BlockGrid
	qgrids [][]int16
	// Generation stamps: the frame each per-level product was last
	// made at (0 = never).
	featGen, gridGen, qGen []uint64
	// gmode is the refresh a level's block grid got this frame (full,
	// partial or clean); the quantized plane follows it.
	gmode []int

	// level0 stashes the stack's own level-0 buffer while levels[0]
	// aliases the source frame: level 0 of the pyramid is always the
	// source size, so it is read in place instead of copied.
	level0        *img.Gray
	level0Aliased bool

	tm ScanTimings // front-end stages of the current frame

	models []*sweepModel // reshaped models of the sweeps over this stack
	scan   scanScratch   // the sweeps' working memory
	dark   darkScratch   // the dark pipeline's, for DetectStackCtx

	// The front-end stages, one fan-out each: gray bands or level
	// resizes (job), then the feature and the block rows of every
	// level a sweep needs built (feat, block).
	fan   par.Fanout
	job   stackJob
	feat  hog.FeaturePass
	block hog.BlockPass
}

// stackJob is one of the frame stack's own fan-outs: the gray
// conversion's row bands (frame set) or the pyramid resize of levels
// lo and up (frame nil).
type stackJob struct {
	st    *FrameStack
	frame *img.RGB
	bands int
	lo    int
}

// Do converts band i, or resizes level lo+i.
//
// lint:hotpath
func (j *stackJob) Do(_, i int) {
	st := j.st
	if f := j.frame; f != nil {
		img.RGBToGrayRows(st.gray, f, f.H*i/j.bands, f.H*(i+1)/j.bands)
		return
	}
	i += j.lo
	st.levels[i] = img.ResizeGrayInto(st.levels[i], st.src, st.sizes[i][0], st.sizes[i][1])
}

// run fans j over n indices on the stack's own fan-out, dropping the
// job's reference to the caller's frame afterwards.
func (st *FrameStack) run(ctx context.Context, workers, n int, j stackJob) error {
	st.job = j
	st.job.st = st
	err := st.fan.Run(ctx, workers, n, &st.job)
	st.job = stackJob{}
	return err
}

// errNoFrame reports a sweep over a stack with no open frame.
var errNoFrame = errors.New("pipeline: frame stack has no open frame; call Begin first")

// NewFrameStack returns an empty stack that builds every frame cold.
// Use TemporalCache.Stack for one that carries work across frames.
func NewFrameStack() *FrameStack { return new(FrameStack) }

var stackPool = sync.Pool{New: func() any { return new(FrameStack) }}

// borrowStack returns a pooled cold stack for one detector call.
func borrowStack() *FrameStack { return stackPool.Get().(*FrameStack) }

// releaseStack returns a stack borrowed with borrowStack.
func releaseStack(st *FrameStack) {
	st.detach()
	stackPool.Put(st) // lint:alloc sync.Pool.Put boxes once per scan, not per window
}

// Begin opens a new frame over src. The previous frame's pyramid and
// front end are forgotten; its products stay available for temporal
// reuse. src is read, never written, and must stay unchanged until the
// frame's last sweep.
func (st *FrameStack) Begin(src *img.Gray) {
	st.gen++
	st.src = src
	st.front = false
	st.sizes = st.sizes[:0]
	st.built = 0
	st.tm = ScanTimings{}
}

// grayBandPixels is the least a gray-conversion band is given. Below
// it the fan-out's goroutines cost more than the band saves, so frames
// under two bands (640x360 included) convert on the calling goroutine.
const grayBandPixels = 1 << 18

// BeginRGB opens a new frame over an RGB frame: it is converted to
// gray once, into a buffer the stack owns and reuses across frames,
// and that gray image is returned (valid until the next BeginRGB).
// Large frames convert in row bands across up to workers goroutines
// (workers <= 0 means NumCPU); every pixel is a function of its own
// RGB triple, so the image is the same for any band split. frame must
// be well formed (see CheckFrame).
func (st *FrameStack) BeginRGB(frame *img.RGB, workers int) *img.Gray {
	g := img.GrayInto(st.gray, frame.W, frame.H)
	st.gray = g
	bands := min(par.Workers(workers), frame.W*frame.H/grayBandPixels, frame.H)
	if bands <= 1 {
		img.RGBToGrayRows(g, frame, 0, frame.H)
	} else {
		_ = st.run(context.Background(), bands, bands, stackJob{frame: frame, bands: bands}) // lint:ctxroot a few ms of pixel work per frame; not worth a cancellation point
	}
	st.Begin(g)
	return g
}

// Source returns the open frame's gray image (nil before Begin).
func (st *FrameStack) Source() *img.Gray { return st.src }

// Timings returns the current frame's front-end stages: resize,
// feature, blocks (normalization plus Q1.14 quantization) and
// temporal, with the tile accounting when a TemporalCache is
// attached. Response and Windows are per sweep and stay zero here.
func (st *FrameStack) Timings() ScanTimings { return st.tm }

// Invalidate makes the next frame build cold, discarding everything
// the attached TemporalCache carries (a no-op without one).
func (st *FrameStack) Invalidate() {
	if st.tc != nil {
		st.tc.Invalidate()
	}
}

// detach drops the stack's reference to the caller's frame, so an idle
// stack never pins it.
func (st *FrameStack) detach() {
	if st.level0Aliased {
		st.levels[0] = st.level0
		st.level0 = nil
		st.level0Aliased = false
	}
	st.src = nil
}

// prev reports whether a product stamped at gen was made on the frame
// right before the current one — the only frame the temporal tile
// fingerprints compare against.
func (st *FrameStack) prev(gen uint64) bool { return gen != 0 && gen+1 == st.gen }

// setLevels grows the per-level arenas to n entries, keeping existing
// buffers for reuse. Stale entries need no clearing: every product is
// read only under a current generation stamp.
func (st *FrameStack) setLevels(n int) {
	for len(st.levels) < n {
		st.levels = append(st.levels, nil)
		st.maps = append(st.maps, new(hog.FeatureMap))
		st.grids = append(st.grids, new(hog.BlockGrid))
		st.qgrids = append(st.qgrids, nil)
		st.featGen = append(st.featGen, 0)
		st.gridGen = append(st.gridGen, 0)
		st.qGen = append(st.qGen, 0)
		st.gmode = append(st.gmode, tcFull)
	}
}

// stackNeeds is what one sweep reads from the stack.
type stackNeeds struct {
	cfg        hog.Config
	scale      float64
	winW, winH int
	quant      bool // Q1.14 block planes (quantized datapath)
}

// ensure brings the stack up to need for the current frame and returns
// the number of pyramid levels the sweep's window fits. On error the
// attached temporal cache is invalidated: products half-refreshed
// against already-updated fingerprints must not be trusted.
//
// lint:hotpath
func (st *FrameStack) ensure(ctx context.Context, workers int, need stackNeeds) (nl int, err error) {
	if st.src == nil {
		return 0, errNoFrame
	}
	if !st.front {
		st.front, st.cfg, st.scale = true, need.cfg, need.scale
		if st.tc != nil {
			st.tc.begin(stackSig{cfg: need.cfg, scale: need.scale, w: st.src.W, h: st.src.H})
		}
	} else if need.cfg != st.cfg || need.scale != st.scale {
		return 0, fmt.Errorf("pipeline: sweep front end %+v/%g differs from the frame stack's %+v/%g", // lint:alloc cold error path; a misconfigured caller, not a steady-state frame
			need.cfg, need.scale, st.cfg, st.scale)
	}
	if st.tc != nil {
		defer func() {
			if err != nil {
				st.tc.Invalidate()
			}
		}()
	}
	last := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d += now.Sub(last)
		last = now
	}

	// Pyramid levels. Every sweep's level list is a prefix of the same
	// geometric sequence, so the frame's pyramid is the longest list
	// asked for; levels are resized concurrently, once per frame, and
	// level 0 aliases the source.
	st.spare = img.PyramidSizesInto(st.spare, st.src.W, st.src.H, st.scale, need.winW, need.winH)
	nl = len(st.spare)
	if nl > len(st.sizes) {
		st.sizes, st.spare = st.spare, st.sizes
	}
	if nl > st.built {
		st.setLevels(nl)
		lo := st.built
		if lo == 0 {
			if !st.level0Aliased {
				st.level0 = st.levels[0]
				st.level0Aliased = true
			}
			st.levels[0] = st.src
			lo = 1
		}
		if err := st.run(ctx, workers, nl-lo, stackJob{lo: lo}); err != nil {
			return 0, err
		}
		st.built = nl
		lap(&st.tm.Resize)
	}

	// Feature maps. Each level not yet current this frame is
	// fingerprinted first (with a cache) and then recomputed whole
	// (full, also the only mode without a cache), refreshed cell by
	// cell (partial) or reused as is (clean); the rows of every level
	// run as one fan-out.
	if anyStale(st.featGen[:nl], st.gen) {
		for i := 0; i < nl; i++ {
			if st.featGen[i] == st.gen {
				continue
			}
			mode := tcFull
			if st.tc != nil {
				mode = st.tc.observe(i, st.levels[i], st.cfg, st.prev(st.featGen[i]))
			}
			switch mode {
			case tcClean:
			case tcPartial:
				if err := st.feat.AddDirty(st.maps[i], st.cfg, st.levels[i], st.tc.cellMask[i]); err != nil {
					st.feat.Reset()
					return 0, err
				}
			default:
				st.feat.Add(st.maps[i], st.cfg, st.levels[i])
			}
		}
		if st.tc != nil {
			lap(&st.tm.Temporal)
		}
		err := st.fan.Run(ctx, workers, st.feat.Len(), &st.feat)
		st.feat.Reset()
		if err != nil {
			return 0, err
		}
		for i := 0; i < nl; i++ {
			st.featGen[i] = st.gen
		}
		lap(&st.tm.Feature)
	}

	// Block grids, the same way: a level's grid follows its feature
	// map's refresh mode when it was current on the previous frame,
	// and is rebuilt whole otherwise.
	if anyStale(st.gridGen[:nl], st.gen) {
		for i := 0; i < nl; i++ {
			if st.gridGen[i] == st.gen {
				continue
			}
			mode := tcFull
			if st.tc != nil && st.prev(st.gridGen[i]) {
				mode = st.tc.mode[i]
			}
			switch mode {
			case tcClean:
			case tcPartial:
				if err := st.block.AddDirty(st.grids[i], st.maps[i], st.tc.blockMask[i]); err != nil {
					st.block.Reset()
					return 0, err
				}
			default:
				st.block.Add(st.grids[i], st.maps[i])
			}
			st.gmode[i] = mode
		}
		err := st.fan.Run(ctx, workers, st.block.Len(), &st.block)
		st.block.Reset()
		if err != nil {
			return 0, err
		}
		for i := 0; i < nl; i++ {
			st.gridGen[i] = st.gen
		}
		lap(&st.tm.Blocks)
	}

	if need.quant {
		// Quantization is elementwise, so requantizing only the dirty
		// blocks of last frame's plane is bitwise the full pass; a
		// plane that skipped a frame or changed length is re-derived
		// whole.
		blockLen := st.cfg.BlockCells * st.cfg.BlockCells * st.cfg.Bins
		for i := 0; i < nl; i++ {
			if st.qGen[i] == st.gen {
				continue
			}
			data := st.grids[i].Data()
			mode := tcFull
			if st.tc != nil && st.prev(st.qGen[i]) && len(st.qgrids[i]) == len(data) {
				mode = st.gmode[i]
			}
			switch {
			case mode == tcFull:
				st.qgrids[i] = fixed.QuantizeQ14(st.qgrids[i], data)
			case mode == tcPartial && st.tc.dirtyBlocks[i] > 0:
				requantDirtyBlocks(st.qgrids[i], data, blockLen, st.tc.blockMask[i])
			}
			st.qGen[i] = st.gen
		}
		lap(&st.tm.Blocks)
	}
	if st.tc != nil {
		st.tm.TemporalPath = true
		fs := st.tc.frame
		st.tm.TileHits, st.tm.TileMisses, st.tm.TileRefreshes = fs.Hits, fs.Misses, fs.Refreshes
	}
	return nl, nil
}

// anyStale reports whether a product stamp in gens is not gen.
func anyStale(gens []uint64, gen uint64) bool {
	for _, g := range gens {
		if g != gen {
			return true
		}
	}
	return false
}
