package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/par"
	"advdet/internal/svm"
)

// windowSweep is one HOG+SVM sliding-window sweep over a FrameStack:
// window geometry, stride, model, threshold and Kind, plus the scan
// configuration. It is the shared-cache, worker-pool equivalent of the
// serial scanPyramid reference. The stack supplies each pyramid level's
// feature map, block grid and quantized plane, built once per frame
// whichever sweeps read them; the sweep fans its window rows out
// across the pool, with every row writing its own output slot so the
// assembled detection list is identical for every worker count.
//
// Every scan position lies on the cell grid (the stride is a multiple
// of the cell size; anything else is ErrScanGeometry), so windows are
// scored against the svm.BlockModel straight from the level's
// normalized block grid — the software rendition of the PL datapath,
// whose HOG memories are written once per frame and only read by the
// window evaluators. There is one window evaluator per datapath, with
// nothing in front of it:
//
//   - float (default): response planes. Each block's dots with every
//     window-relative weight slice that reads it are computed once,
//     into a plane row (svm.PlaneLayout.FillRow), and a window's
//     margin is the bias plus one plane entry per block position,
//     summed in canonical order (svm.PlaneLayout.Margins) — bitwise
//     svm.BlockModel.WindowMargin. Window rows are swept in bands, and
//     each worker keeps only the plane rows its current window row
//     reads, in a ring; a row with no candidate fills none.
//   - quantized (Quantized): margins accumulated over the stack's
//     Q1.14 block planes in the integer datapath of the PL
//     (svm.QuantBlockModel.ScoreAt, integer early exit on). Rejections
//     outside the analytic error band are final; every other window is
//     re-scored through the float path, so detections — boxes and
//     scores — are identical to the float scan.
type windowSweep struct {
	Cfg        hog.Config
	Model      *svm.Model
	WinW, WinH int
	Stride     int
	Scale      float64
	Thresh     float64
	Kind       Kind
	ScanConfig
}

// ScanConfig is what a HOG detector's scan does beyond its window
// geometry and model: the scoring datapath and the temporal cache.
// DayDuskDetector, PedestrianDetector and AnimalDetector embed it, so
// d.Quantized and d.Temporal are set on the detector directly. No
// field changes the detections.
type ScanConfig struct {
	// Quantized scores windows in the int16/int32 fixed-point datapath
	// with float re-scoring of every window it does not reject, so
	// detections are identical to the float scan, boxes and scores.
	// Ignored (with float fallback) when the model's weights exceed the
	// quantizer's range.
	Quantized bool
	// Temporal, when non-nil, reuses the feature/block stack and the
	// sweep's window rows across consecutive frames, recomputing only
	// what each frame's dirty tiles invalidate (see NewTemporalCache).
	// Byte-identical output; a cache binds its detector to one frame
	// sequence and must not be shared across detectors or concurrent
	// scans. SweepCtx ignores it: there the stack carries the cache.
	Temporal *TemporalCache
}

// Scan returns c itself. Promoted through embedding, it gives code
// written over any HOG detector type one handle on the detector's scan
// configuration.
func (c *ScanConfig) Scan() *ScanConfig { return c }

// ErrScanGeometry reports a HOG sweep whose windows cannot be scored
// from the level block grid: a stride that is not a positive multiple
// of the cell size, a window smaller than one block, or a model that
// is missing or whose length is not the window's descriptor length.
// DetectCtx, DetectTimedCtx, SweepCtx and CheckGeometry return it
// wrapped; test with errors.Is.
var ErrScanGeometry = errors.New("pipeline: scan geometry off the block grid")

// checkStride rejects a stride that is not a positive multiple of the
// cell size, wrapping ErrScanGeometry.
func (s windowSweep) checkStride() error {
	if cell := s.Cfg.CellSize; cell <= 0 || s.Stride <= 0 || s.Stride%cell != 0 {
		return fmt.Errorf("%w: stride %d is not a multiple of the %d-px cell", ErrScanGeometry, s.Stride, cell) // lint:alloc cold error path; a misconfigured detector, not a steady-state frame
	}
	return nil
}

// initModel shapes the sweep's model into bm, returning the window's
// block dimensions, or an error wrapping ErrScanGeometry.
func (s windowSweep) initModel(bm *svm.BlockModel) (bw, bh int, err error) {
	if err := s.checkStride(); err != nil {
		return 0, 0, err
	}
	if s.Model == nil {
		return 0, 0, fmt.Errorf("%w: no model", ErrScanGeometry) // lint:alloc cold error path; a misconfigured detector, not a steady-state frame
	}
	bw, bh = s.Cfg.BlocksFor(s.WinW, s.WinH)
	if err := bm.Init(s.Model, bw, bh, s.blockLen()); err != nil {
		return 0, 0, fmt.Errorf("%w: %dx%d window: %v", ErrScanGeometry, s.WinW, s.WinH, err) // lint:alloc cold error path; a misconfigured detector, not a steady-state frame
	}
	return bw, bh, nil
}

// blockLen is the number of floats in one normalized block.
func (s windowSweep) blockLen() int { return s.Cfg.BlockCells * s.Cfg.BlockCells * s.Cfg.Bins }

// check validates the sweep's geometry without scanning: the boot-time
// form of the error run returns.
func (s windowSweep) check() error {
	_, _, err := s.initModel(new(svm.BlockModel))
	return err
}

// rowTask addresses one window row of one pyramid level.
type rowTask struct{ level, y int }

// rowBand is the unit of the sweep's fan-out: row tasks t0..t1-1, a
// run of consecutive window rows of one level. A band's plane rows are
// filled once each by the worker that sweeps it; only the block rows
// its first window row shares with the previous band are filled twice.
type rowBand struct{ level, t0, t1 int }

// planeBandBlockRows is how many block rows a band of window rows
// spans, about: a band refills the (bh-1)*BlockStride block rows it
// shares with its predecessor, 6 for the shipped windows, so 64 keeps
// that under a tenth of the plane work while a 1080p level still
// splits into bands for two workers.
const planeBandBlockRows = 64

// rowScratch is the per-worker scratch of the window-row loop: the
// row's candidate anchors, the cached detections a partially dirty row
// keeps, the worker's detection arena, which every row the worker
// scores appends to, and its plane ring. It lives in the stack's
// scanScratch, so its buffers survive from sweep to sweep.
type rowScratch struct {
	cands []int
	kept  []Detection
	dets  []Detection

	// The plane ring: the plane rows of the block rows the current
	// window row reads. Block row cy lives in slot cy % len(ringRow),
	// ringRow[slot] is the block row a slot holds (-1: none), and rows
	// are the current window row's plane rows by position row.
	ring    []float64
	ringRow []int
	rows    [][]float64
	margins []float64

	// Wall time this worker spent in the sweep and, of that, filling
	// plane rows; kept only for timed sweeps.
	busy, plane time.Duration
}

// ScanTimings breaks one multi-scale scan into its wall-clock stages,
// mirroring the paper's Fig. 2 datapath: pyramid resize, gradient +
// cell-histogram feature maps, block normalization and quantization,
// the per-level anchor lattices and response planes, and the window
// scoring sweep. Resize, Feature, Blocks, Temporal and the tile
// accounting are the frame stack's
// (FrameStack.Timings, once per frame); Response, Windows and
// Quantized are one sweep's (SweepCtx).
// DetectTimedCtx reports both for its one-sweep stack. Plane rows are
// filled and summed by the same workers, interleaved, so the sweep's
// fan-out wall time is split between Response and Windows in the
// ratio of the workers' time in each.
type ScanTimings struct {
	Resize   time.Duration // pyramid level resizing
	Feature  time.Duration // gradient + cell-histogram feature maps
	Blocks   time.Duration // block L2Hys normalization + Q1.14 quantization
	Response time.Duration // anchor lattices + response-plane rows
	Windows  time.Duration // window margins + detection assembly
	Temporal time.Duration // tile fingerprinting + dirty-mask dilation
	// TileHits/TileMisses/TileRefreshes are the temporal cache's tile
	// accounting for this frame (all zero without a cache): reused,
	// content-changed, and no-comparable-fingerprint tiles.
	TileHits      int
	TileMisses    int
	TileRefreshes int
	// Quantized reports whether the fixed-point scoring path ran.
	Quantized bool
	// TemporalPath reports whether a temporal cache served the frame.
	TemporalPath bool
}

// scanPositions counts the window positions of a scan axis.
func scanPositions(size, win, stride int) int {
	if size < win {
		return 0
	}
	return (size-win)/stride + 1
}

// sweepJob is one sweep's window-row fan-out: everything a row task
// reads, set once per sweep in the scan scratch.
type sweepJob struct {
	s         windowSweep
	st        *FrameStack
	sc        *scanScratch
	m         *sweepModel
	useQuant  bool
	serveRows bool // the temporal part holds last frame's rows
	timed     bool // workers keep their busy and plane-fill times
	part      *sweepPart
	spanCX    int // a window's cell rectangle
	spanCY    int
	tasks     []rowTask
	bands     []rowBand
	results   [][]Detection
}

// run sweeps every pyramid level of the stack's open frame that the
// window fits with the given worker count, leaving the detections in
// deterministic level-major, raster order in sc.all, which it returns
// (valid until sc is reused). It brings the stack up to what the
// sweep reads first; tm (may be nil; written only on success) receives
// the sweep's own stages.
//
// lint:hotpath
func (s windowSweep) run(ctx context.Context, st *FrameStack, sc *scanScratch, workers int, tm *ScanTimings) ([]Detection, error) {
	workers = par.Workers(workers)
	if err := s.checkStride(); err != nil {
		return nil, err
	}
	m, err := st.model(s)
	if err != nil {
		return nil, err
	}
	cell := s.Cfg.CellSize
	// A quantizer Init failure (weights beyond the int16 range)
	// silently keeps the float path: quantized scoring is a datapath
	// model, not a different contract. A repeat Init is a no-op.
	useQuant := s.Quantized && m.qbm.Init(s.Model, m.bm.BW, m.bm.BH, m.bm.BlockLen, s.Thresh) == nil
	nl, err := st.ensure(ctx, workers, stackNeeds{cfg: s.Cfg, scale: s.Scale, winW: s.WinW, winH: s.WinH,
		quant: useQuant})
	if err != nil {
		return nil, err
	}

	var t ScanTimings
	timed := tm != nil
	var last time.Time
	if timed {
		last = time.Now()
	}
	lap := func(d *time.Duration) {
		if !timed {
			return
		}
		now := time.Now()
		*d += now.Sub(last)
		last = now
	}

	// The sweep's own cross-frame state: with a temporal cache, its
	// rows from the previous frame are reusable wherever the stack's
	// dirty masks prove the inputs unchanged — and only if this same
	// sweep produced them on that frame.
	var part *sweepPart
	prevPart := false
	if tc := st.tc; tc != nil {
		part = tc.part(sweepSig{
			model: s.Model, cfg: s.Cfg,
			winW: s.WinW, winH: s.WinH, stride: s.Stride,
			scale: s.Scale, thresh: s.Thresh, quant: s.Quantized,
			w: st.src.W, h: st.src.H,
		})
		prevPart = st.prev(part.gen)
	}

	// Per level: the anchor lattice over the stack's block grid. The
	// pyramid holds only levels the window fits, so every lattice has
	// at least one anchor.
	step := s.Stride / cell
	if !useQuant {
		m.pl.Init(&m.bm, step, step, s.Cfg.BlockStride)
	}
	sc.setLevels(nl)
	for i := 0; i < nl; i++ {
		level, bg := st.levels[i], st.grids[i]
		nbx, nby := bg.Dims()
		lat := svm.Lattice{
			NBX: nbx, NBY: nby,
			StepX: step, StepY: step,
			NAX: scanPositions(level.W, s.WinW, s.Stride), NAY: scanPositions(level.H, s.WinH, s.Stride),
			BlockStride: s.Cfg.BlockStride,
		}
		if err := m.bm.CheckLattice(lat, len(bg.Data())); err != nil {
			return nil, err
		}
		if useQuant {
			if err := m.qbm.CheckLattice(lat, len(st.qgrids[i])); err != nil {
				return nil, err
			}
		}
		sc.lats[i] = lat
	}
	lap(&t.Response)

	// One task per window row across all levels, pre-sized from the
	// pyramid geometry; each task owns an output slot, so assembly
	// order is independent of worker scheduling. The workers take the
	// tasks a band at a time: a plane band of window rows, or one row
	// on the quantized lane, which fills no planes.
	nt := 0
	for i := 0; i < nl; i++ {
		nt += sc.lats[i].NAY
	}
	tasks, results := sc.setTasks(nt)
	bandRows := 1
	if !useQuant {
		bandRows = max(1, planeBandBlockRows/step)
	}
	sc.bands = sc.bands[:0]
	k := 0
	for i := 0; i < nl; i++ {
		for ay := 0; ay < sc.lats[i].NAY; ay++ {
			if ay%bandRows == 0 {
				sc.bands = append(sc.bands, rowBand{level: i, t0: k}) // lint:alloc grows to the most bands a sweep has
			}
			tasks[k] = rowTask{i, ay * s.Stride}
			k++
			sc.bands[len(sc.bands)-1].t1 = k
		}
	}
	bw, bh := m.bm.BW, m.bm.BH
	sc.beginWorkers(workers)
	sc.job = sweepJob{
		s: s, st: st, sc: sc, m: m,
		useQuant: useQuant, timed: timed,
		// Window-row reuse: with a cache holding the previous scan's
		// rows (same signature, so the task list is identical), any
		// row whose inputs are untouched this frame produces
		// byte-identical detections — its scores are pure functions of
		// blocks the dirty masks prove unchanged — so the row task
		// serves the cached slice instead of rescoring it.
		serveRows: prevPart && part.rows.n() == nt,
		part:      part,
		// A window's cell rectangle: the cells its blocks read.
		spanCX: (bw-1)*s.Cfg.BlockStride + s.Cfg.BlockCells,
		spanCY: (bh-1)*s.Cfg.BlockStride + s.Cfg.BlockCells,
		tasks:  tasks, bands: sc.bands, results: results,
	}
	err = sc.fan.Run(ctx, workers, len(sc.bands), &sc.job)
	sc.job = sweepJob{}
	if err != nil {
		return nil, err
	}
	if timed {
		// The fan-out's wall time, split between plane fills and window
		// sums in the ratio of the workers' time in each.
		var busy, plane time.Duration
		for _, rs := range sc.rows[:workers] {
			busy, plane = busy+rs.busy, plane+rs.plane
		}
		if busy > 0 {
			resp := time.Duration(float64(time.Since(last)) * float64(plane) / float64(busy))
			t.Response += resp
			last = last.Add(resp)
		}
	}
	sc.all = sc.all[:0]
	for _, r := range results {
		sc.all = append(sc.all, r...) // lint:alloc grows the detection buffer to its high-water mark
	}
	if part != nil {
		part.storeRows(results, st.gen)
	}
	lap(&t.Windows)
	if timed {
		t.Quantized = useQuant
		*tm = t
	}
	return sc.all, nil
}

// Do sweeps band bi on worker w, row by row.
//
// lint:hotpath
func (j *sweepJob) Do(w, bi int) {
	var start time.Time
	if j.timed {
		start = time.Now()
	}
	b := j.bands[bi]
	rs := j.sc.rows[w]
	if !j.useQuant {
		j.beginBand(rs, b.level)
	}
	for ti := b.t0; ti < b.t1; ti++ {
		j.row(rs, ti)
	}
	if j.timed {
		rs.busy += time.Since(start)
	}
}

// beginBand readies rs's plane ring for a band of the given level: one
// slot per block row a window row spans, each wide enough for every
// block column the level's windows reach, all empty.
//
// lint:hotpath
func (j *sweepJob) beginBand(rs *rowScratch, level int) {
	lat, pl, bm := j.sc.lats[level], &j.m.pl, &j.m.bm
	slots := (bm.BH-1)*lat.BlockStride + 1
	ncx := (lat.NAX-1)*lat.StepX + (bm.BW-1)*lat.BlockStride + 1
	if n := slots * ncx * pl.Width; cap(rs.ring) < n {
		rs.ring = make([]float64, n) // lint:alloc grows to the widest level's ring once per scratch
	}
	rs.ring = rs.ring[:slots*ncx*pl.Width]
	if cap(rs.ringRow) < slots {
		rs.ringRow = make([]int, slots) // lint:alloc grows to the tallest window once per scratch
	}
	rs.ringRow = rs.ringRow[:slots]
	for i := range rs.ringRow {
		rs.ringRow[i] = -1
	}
	if cap(rs.rows) < bm.BH {
		rs.rows = make([][]float64, bm.BH) // lint:alloc grows to the tallest window once per scratch
	}
	rs.rows = rs.rows[:bm.BH]
}

// planeRows points rs.rows at the plane rows window row ay of the
// band's level reads, filling the ones the ring does not hold yet.
//
// lint:hotpath
func (j *sweepJob) planeRows(rs *rowScratch, level, ay int) [][]float64 {
	var start time.Time
	if j.timed {
		start = time.Now()
	}
	lat, pl := j.sc.lats[level], &j.m.pl
	blocks := j.st.grids[level].Data()
	slots := len(rs.ringRow)
	rowLen := len(rs.ring) / slots
	for pby := range rs.rows {
		cy := ay*lat.StepY + pby*lat.BlockStride
		slot := cy % slots
		r := rs.ring[slot*rowLen:][:rowLen]
		if rs.ringRow[slot] != cy {
			pl.FillRow(r, blocks, lat.NBX, cy, rowLen/pl.Width)
			rs.ringRow[slot] = cy
		}
		rs.rows[pby] = r
	}
	if j.timed {
		rs.plane += time.Since(start)
	}
	return rs.rows
}

// row scores row task ti on the worker owning rs, appending the row's
// detections in ascending x to the worker's arena and recording them
// as results[ti].
//
// lint:hotpath
func (j *sweepJob) row(rs *rowScratch, ti int) {
	s, st, part := &j.s, j.st, j.part
	tc := st.tc
	rt := j.tasks[ti]
	cy0 := rt.y / s.Cfg.CellSize
	if j.serveRows && tc.rowServable(rt.level, cy0, cy0+j.spanCY) {
		j.results[ti] = part.rows.row(ti)
		return
	}
	g := st.src
	level := st.levels[rt.level]
	fx := float64(g.W) / float64(level.W)
	fy := float64(g.H) / float64(level.H)
	box := func(ax int) img.Rect {
		x := ax * s.Stride
		return img.Rect{
			X0: int(float64(x) * fx),
			Y0: int(float64(rt.y) * fy),
			X1: int(float64(x+s.WinW) * fx),
			Y1: int(float64(rt.y+s.WinH) * fy),
		}
	}
	ay := rt.y / s.Stride
	lat := j.sc.lats[rt.level]
	blocks := st.grids[rt.level].Data()
	// Per-window reuse inside a partially dirty level: a window whose
	// cell rectangle the prefix proves clean kept its inputs, so last
	// frame's verdict stands and its cached detection — if it had one
	// — is kept instead of rescoring.
	rowPartial := j.serveRows && tc.mode[rt.level] == tcPartial
	var cached []Detection
	cj := 0
	if rowPartial {
		cached = part.rows.row(ti)
	}
	// serve reports whether the window at ax keeps last frame's
	// verdict, appending its cached detection, if it had one, to
	// rs.kept.
	serve := func(ax int) bool {
		if !rowPartial {
			return false
		}
		cx0 := ax * lat.StepX
		if !tc.cellRectClean(rt.level, cx0, cy0, cx0+j.spanCX, cy0+j.spanCY) {
			return false
		}
		// Cached rows are in ascending-x order and box is a pure
		// function of ax, so a pointer walk pairs this window with its
		// previous detection, if any.
		x0 := box(ax).X0
		for cj < len(cached) && cached[cj].Box.X0 < x0 {
			cj++
		}
		if cj < len(cached) && cached[cj].Box.X0 == x0 {
			rs.kept = append(rs.kept, cached[cj]) // lint:alloc grows to the widest row once per scratch
			cj++
		}
		return true
	}
	// The row's candidates: windows not served from the cache.
	rs.cands, rs.kept = rs.cands[:0], rs.kept[:0]
	for ax := 0; ax < lat.NAX; ax++ {
		if serve(ax) {
			continue
		}
		rs.cands = append(rs.cands, ax) // lint:alloc grows to the widest row once per scratch
	}
	// Scored and kept detections merge in ascending x, the raster
	// order of the row.
	start := len(rs.dets)
	kept := rs.kept
	emit := func(ax int, m float64) {
		b := box(ax)
		for len(kept) > 0 && kept[0].Box.X0 < b.X0 {
			rs.dets = append(rs.dets, kept[0]) // lint:alloc grows the worker's detection arena to its high-water mark
			kept = kept[1:]
		}
		rs.dets = append(rs.dets, Detection{Box: b, Score: m, Kind: s.Kind}) // lint:alloc grows the worker's detection arena to its high-water mark
	}
	if j.useQuant {
		// Integer decisions; margins of the windows not rejected are
		// resolved by the float model.
		qblocks := st.qgrids[rt.level]
		for _, ax := range rs.cands {
			_, dec := j.m.qbm.ScoreAt(qblocks, lat, ax, ay, true)
			if m, ok := resolveQuant(&j.m.bm, dec, blocks, lat, ax, ay, s.Thresh); ok {
				emit(ax, m)
			}
		}
	} else if len(rs.cands) > 0 {
		if cap(rs.margins) < len(rs.cands) {
			rs.margins = make([]float64, len(rs.cands)) // lint:alloc grows to the widest row once per scratch
		}
		margins := rs.margins[:len(rs.cands)]
		j.m.pl.Margins(margins, j.planeRows(rs, rt.level, ay), rs.cands)
		for i, ax := range rs.cands {
			if margins[i] > s.Thresh {
				emit(ax, margins[i])
			}
		}
	}
	rs.dets = append(rs.dets, kept...) // lint:alloc grows the worker's detection arena to its high-water mark
	j.results[ti] = rs.dets[start:len(rs.dets):len(rs.dets)]
}

// detect is run plus NMS in the stack's scan scratch, with errors
// attributed to the detector. The NMS survivors are the sweep's one
// allocation.
func (s windowSweep) detect(ctx context.Context, st *FrameStack, workers int, tm *ScanTimings,
	nmsIoU float64, what string) ([]Detection, error) {
	sc := &st.scan
	dets, err := s.run(ctx, st, sc, workers, tm)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s detect: %w", what, err)
	}
	return sc.nms.run(dets, nmsIoU), nil
}

// detectOnce is every HOG detector's DetectTimedCtx: a one-sweep
// frame stack over g — the detector's temporal cache's, or a pooled
// cold one — swept once. tm receives the stack's stages and the
// sweep's.
func detectOnce(ctx context.Context, tc *TemporalCache, g *img.Gray, workers int, tm *ScanTimings,
	s windowSweep, nmsIoU float64, what string) ([]Detection, error) {
	var st *FrameStack
	if tc != nil {
		st = tc.Stack()
		defer st.detach()
	} else {
		st = borrowStack()
		defer releaseStack(st)
	}
	st.Begin(g)
	var sw ScanTimings
	var swp *ScanTimings
	if tm != nil {
		swp = &sw
	}
	dets, err := s.detect(ctx, st, workers, swp, nmsIoU, what)
	if err == nil && tm != nil {
		t := st.Timings()
		t.Response, t.Windows, t.Quantized = sw.Response, sw.Windows, sw.Quantized
		*tm = t
	}
	return dets, err
}

// resolveQuant turns a quantized decision into the float-path verdict
// for one window. Rejections outside the guard band are final (the
// analytic error bound proves the float margin lands below the
// threshold); every other window — borderline or accepted — re-scores
// through the float block model, so the quantized lane reports the
// float scan's detections exactly, boxes and scores. Accepts are
// post-threshold and rare, so the re-score costs next to nothing, and
// NMS sees the same scores the float lane would: with quantized scores
// two near-equal windows could swap places and keep a different box.
//
// lint:hotpath
func resolveQuant(bm *svm.BlockModel, dec svm.QuantDecision,
	blocks []float64, lat svm.Lattice, ax, ay int, thresh float64) (float64, bool) {
	if dec == svm.QuantReject {
		return 0, false
	}
	m := bm.WindowMargin(blocks, lat, ax, ay)
	return m, m > thresh
}
