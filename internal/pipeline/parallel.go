package pipeline

import (
	"context"
	"fmt"
	"time"

	"advdet/internal/haar"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/par"
	"advdet/internal/svm"
)

// windowSweep is one HOG+SVM sliding-window sweep over a FrameStack:
// window geometry, stride, model, threshold and Kind, plus the scoring
// lane. It is the shared-cache, worker-pool equivalent of the serial
// scanPyramid reference. The stack supplies each pyramid level's
// feature map, block grid, quantized plane and integral image, built
// once per frame whichever sweeps read them; the sweep fans its window
// rows out across the pool, with every row writing its own output slot
// so the assembled detection list is identical for every worker count.
//
// When every scan position lies on the cell grid (stride a multiple
// of the cell size — true for all shipped detectors), the sweep takes
// the block-response fast path: windows are scored against the
// svm.BlockModel straight from the level's normalized block grid — the
// software rendition of the PL datapath, whose HOG memories are
// written once per frame and only read by the window evaluators.
// Within the fast path three scoring strategies exist:
//
//   - early reject (default): each window's block partials are
//     accumulated in descending weight-mass order and the window is
//     abandoned as soon as the remaining blocks provably cannot lift
//     the margin above the threshold. Surviving windows re-sum their
//     stashed partials in canonical order, so reported margins are
//     bitwise identical to the full evaluation. A row's windows are
//     scored together, position-major (svm.BlockModel.EarlyMarginRow).
//   - full margin (NoEarlyReject): the PR5 plane path — per-anchor
//     partial responses precomputed by svm.BlockModel.Responses,
//     windows summed from the plane.
//   - quantized (Quantized): margins accumulated over the stack's
//     Q1.14 block planes in the integer datapath of the PL
//     (svm.QuantBlockModel). Rejections outside the analytic error
//     band are final; every other window is re-scored through the
//     float path, so detections — boxes and scores — are identical to
//     the float scan.
//
// Unaligned strides keep the descriptor path with its per-window
// Cfg.Extract crop fallback.
type windowSweep struct {
	Cfg        hog.Config
	Model      *svm.Model
	WinW, WinH int
	Stride     int
	Scale      float64
	Thresh     float64
	Kind       Kind
	// NoBlockResponse forces the per-window descriptor path. The
	// block-response engine is on by default; benchmarks and
	// equivalence tests use this to compare the two.
	NoBlockResponse bool
	// NoEarlyReject disables the partial-margin early exit and scores
	// every window from a precomputed response plane (the PR5
	// behaviour). Equivalence tests pin the two paths byte-identical.
	NoEarlyReject bool
	// Quantized scores windows in the int16/int32 fixed-point datapath
	// with float re-scoring of every window it does not reject. Ignored
	// (with float fallback) when the model's weights exceed the
	// quantizer's range.
	Quantized bool
	// Prefilter, when non-nil and trained at exactly (WinW, WinH),
	// integral-image-rejects windows before any block scoring. A
	// cascade trained at a different window geometry is ignored: its
	// scores would be evaluated over the wrong pixels.
	Prefilter *haar.Cascade
}

// rowTask addresses one window row of one pyramid level.
type rowTask struct{ level, y int }

// rowScratch is the per-worker scratch of the window-row loop: the
// descriptor buffer the fallback path assembles into, and the early-
// reject row scorer's candidate anchors, working set and the cached
// detections a partially dirty row keeps. It lives in the pooled
// scanScratch, so its buffers survive from sweep to sweep.
type rowScratch struct {
	desc  []float64
	cands []int
	kept  []Detection
	row   svm.RowScratch
}

// ScanTimings breaks one multi-scale scan into its wall-clock stages,
// mirroring the paper's Fig. 2 datapath: pyramid resize, gradient +
// cell-histogram feature maps, haar prefilter integrals, block
// normalization and quantization, per-anchor SVM partial responses,
// and the window scoring sweep. The first five stages and the tile
// accounting are the frame stack's (FrameStack.Timings, once per
// frame); Response, Windows, BlockPath and Quantized are one sweep's
// (SweepCtx). DetectTimedCtx reports both for its one-sweep stack.
type ScanTimings struct {
	Resize    time.Duration // pyramid level resizing
	Feature   time.Duration // gradient + cell-histogram feature maps
	Prefilter time.Duration // haar prefilter integral images
	Blocks    time.Duration // block L2Hys normalization + Q1.14 quantization
	Response  time.Duration // lattice checks + per-anchor SVM response planes
	Windows   time.Duration // window scoring + detection assembly
	Temporal  time.Duration // tile fingerprinting + dirty-mask dilation
	// TileHits/TileMisses/TileRefreshes are the temporal cache's tile
	// accounting for this frame (all zero without a cache): reused,
	// content-changed, and no-comparable-fingerprint tiles.
	TileHits      int
	TileMisses    int
	TileRefreshes int
	// BlockPath reports whether the block-response fast path ran.
	BlockPath bool
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

// run sweeps every pyramid level of the stack's open frame that the
// window fits with the given worker count, returning detections in
// deterministic level-major, raster order. It brings the stack up to
// what the sweep reads first; tm (may be nil; written only on success)
// receives the sweep's own stages.
//
// lint:hotpath
func (s windowSweep) run(ctx context.Context, st *FrameStack, workers int, tm *ScanTimings) ([]Detection, error) {
	workers = par.Workers(workers)
	sc := borrowScanScratch()
	defer releaseScanScratch(sc)

	// The fast path applies when every scan position is cell-aligned,
	// so each window's blocks exist in the level block grid.
	cell := s.Cfg.CellSize
	bw, bh := s.Cfg.BlocksFor(s.WinW, s.WinH)
	blockLen := s.Cfg.BlockCells * s.Cfg.BlockCells * s.Cfg.Bins
	useBlocks := !s.NoBlockResponse && s.Stride%cell == 0 && bw > 0 && bh > 0 &&
		sc.bm.Init(s.Model, bw, bh, blockLen) == nil
	// An Init mismatch (model length vs window geometry) falls through
	// to the descriptor path, where Model.Margin reports the wiring
	// bug exactly as it always has. A quantizer Init failure (weights
	// beyond the int16 range) silently keeps the float path: quantized
	// scoring is an optimization, not a different contract.
	useQuant := useBlocks && s.Quantized &&
		sc.qbm.Init(s.Model, bw, bh, blockLen, s.Thresh) == nil
	useEarly := !s.NoEarlyReject
	usePref := false
	if s.Prefilter != nil {
		pw, ph := s.Prefilter.Window()
		usePref = pw == s.WinW && ph == s.WinH
	}
	nl, err := st.ensure(ctx, workers, stackNeeds{cfg: s.Cfg, scale: s.Scale, winW: s.WinW, winH: s.WinH,
		blocks: useBlocks, quant: useQuant, integral: usePref})
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
	// rows and planes from the previous frame are reusable wherever the
	// stack's dirty masks prove the inputs unchanged — and only if this
	// same sweep produced them on that frame.
	tc := st.tc
	var part *sweepPart
	prevPart := false
	sc.setLevels(nl)
	resp, qresp := sc.resp, sc.qresp
	if tc != nil {
		part = tc.part(sweepSig{
			model: s.Model, cfg: s.Cfg,
			winW: s.WinW, winH: s.WinH, stride: s.Stride,
			scale: s.Scale, thresh: s.Thresh,
			noBlock: s.NoBlockResponse, noEarly: s.NoEarlyReject, quant: s.Quantized,
			pref: s.Prefilter, w: st.src.W, h: st.src.H,
		})
		prevPart = st.prev(part.gen)
		part.setLevels(nl)
		resp, qresp = part.resp, part.qresp
	}

	// Per level: the anchor lattice over the stack's block grid and,
	// on the plane lanes, the response plane the scoring reads.
	for i := 0; i < nl; i++ {
		level := st.levels[i]
		sc.lats[i] = svm.Lattice{}
		sc.nax[i] = 0
		if !useBlocks {
			continue
		}
		nax := scanPositions(level.W, s.WinW, s.Stride)
		nay := scanPositions(level.H, s.WinH, s.Stride)
		if nax == 0 || nay == 0 {
			continue
		}
		bg := st.grids[i]
		nbx, nby := bg.Dims()
		lat := svm.Lattice{
			NBX: nbx, NBY: nby,
			StepX: s.Stride / cell, StepY: s.Stride / cell,
			NAX: nax, NAY: nay,
			BlockStride: s.Cfg.BlockStride,
		}
		if err := sc.bm.CheckLattice(lat, len(bg.Data())); err != nil {
			return nil, err
		}
		// A plane is refreshed like the grid it derives from: reused
		// where the grid was clean, patched at the dirty anchors where
		// it was partial, and recomputed otherwise.
		mode := tcFull
		if prevPart {
			mode = st.gmode[i]
		}
		dirty := mode == tcPartial && tc.dirtyBlocks[i] > 0
		switch {
		case useQuant:
			if err := sc.qbm.CheckLattice(lat, len(st.qgrids[i])); err != nil {
				return nil, err
			}
			if !useEarly {
				need := nax * nay * bw * bh
				full := mode == tcFull || len(qresp[i]) != need
				qresp[i] = growI32(qresp[i], need) // lint:alloc grows to the largest level once
				switch {
				case full:
					if err := sc.qbm.Responses(ctx, workers, st.qgrids[i], lat, qresp[i]); err != nil {
						return nil, err
					}
				case dirty:
					part.dirtyAnchors(tc.blockMask[i], lat, bw, bh)
					if err := sc.qbm.ResponsesDirty(ctx, workers, st.qgrids[i], lat, qresp[i], part.anchMask[:nax*nay]); err != nil {
						return nil, err
					}
				}
			}
		case !useEarly:
			need := nax * nay * bw * bh
			full := mode == tcFull || len(resp[i]) != need
			resp[i] = growF64(resp[i], need) // lint:alloc grows to the largest level once
			switch {
			case full:
				if err := sc.bm.Responses(ctx, workers, bg.Data(), lat, resp[i]); err != nil {
					return nil, err
				}
			case dirty:
				part.dirtyAnchors(tc.blockMask[i], lat, bw, bh)
				if err := sc.bm.ResponsesDirty(ctx, workers, bg.Data(), lat, resp[i], part.anchMask[:nax*nay]); err != nil {
					return nil, err
				}
			}
		}
		// With the early exit, margins are computed on demand in stage
		// 3 straight from the block grid: precomputing every anchor's
		// partials would spend the work the exit exists to skip.
		sc.lats[i] = lat
		sc.nax[i] = nax
	}
	if useBlocks {
		lap(&t.Response)
	}

	// One task per window row across all levels, pre-sized from the
	// pyramid geometry; each task owns an output slot, so assembly
	// order is independent of worker scheduling.
	nt := 0
	for i := 0; i < nl; i++ {
		nt += scanPositions(st.levels[i].H, s.WinH, s.Stride)
	}
	tasks, results := sc.setTasks(nt)
	k := 0
	for i := 0; i < nl; i++ {
		level := st.levels[i]
		for y := 0; y+s.WinH <= level.H; y += s.Stride {
			tasks[k] = rowTask{i, y}
			k++
		}
	}
	g := st.src
	descLen := s.Cfg.DescriptorLen(s.WinW, s.WinH)
	// Window-row reuse: with a cache holding the previous scan's rows
	// (same signature, so the task list is identical), any row whose
	// inputs are untouched this frame produces byte-identical
	// detections — its scores are pure functions of blocks and pixels
	// the dirty masks prove unchanged — so stage 3 serves the cached
	// slice instead of rescoring the row.
	serveRows := prevPart && len(part.rowDets) == nt
	sc.beginWorkers(workers)
	err = par.ForEachLocal(ctx, workers, nt, sc.newRow,
		func(ti int, rs *rowScratch) {
			rt := tasks[ti]
			if serveRows && tc.rowServable(s.Cfg, rt.level, rt.y, s.WinH, sc.nax[rt.level] > 0, bh) {
				results[ti] = part.rowDets[ti]
				return
			}
			level, fm := st.levels[rt.level], st.maps[rt.level]
			fx := float64(g.W) / float64(level.W)
			fy := float64(g.H) / float64(level.H)
			var dets []Detection
			box := func(x int) img.Rect {
				return img.Rect{
					X0: int(float64(x) * fx),
					Y0: int(float64(rt.y) * fy),
					X1: int(float64(x+s.WinW) * fx),
					Y1: int(float64(rt.y+s.WinH) * fy),
				}
			}
			var it *haar.Integral
			if usePref {
				it = st.its[rt.level]
			}
			pass := func(x int) bool {
				return it == nil || s.Prefilter.AcceptAt(it, x, rt.y)
			}
			if nax := sc.nax[rt.level]; nax > 0 {
				// Block-response fast path: zero copies, zero
				// normalization, zero allocation per window.
				ay := rt.y / s.Stride
				lat := sc.lats[rt.level]
				blocks := st.grids[rt.level].Data()
				emit := func(ax int, m float64) {
					dets = append(dets, Detection{Box: box(ax * s.Stride), Score: m, Kind: s.Kind}) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
				}
				// Per-window reuse inside a partially dirty level: a
				// window whose cell rectangle (block span and pixel
				// span, whichever is larger) the prefix proves clean
				// kept its inputs, so last frame's verdict stands and
				// its cached detection — if it had one — is copied
				// instead of rescoring. Windows in the dirty region
				// fall through to the scoring branches below.
				rowPartial := serveRows && tc.mode[rt.level] == tcPartial
				var cached []Detection
				cj := 0
				if rowPartial {
					cached = part.rowDets[ti]
				}
				spanCX := (bw-1)*s.Cfg.BlockStride + s.Cfg.BlockCells
				if p := (s.WinW + cell - 1) / cell; p > spanCX {
					spanCX = p
				}
				spanCY := (bh-1)*s.Cfg.BlockStride + s.Cfg.BlockCells
				if p := (s.WinH + cell - 1) / cell; p > spanCY {
					spanCY = p
				}
				cy0 := rt.y / cell
				// serve reports whether the window at ax keeps last
				// frame's verdict, appending its cached detection, if
				// it had one, to *out.
				serve := func(ax int, out *[]Detection) bool {
					if !rowPartial {
						return false
					}
					cx0 := ax * lat.StepX
					if !tc.cellRectClean(rt.level, cx0, cy0, cx0+spanCX, cy0+spanCY) {
						return false
					}
					// Cached rows are in ascending-x order and box is a
					// pure function of ax, so a pointer walk pairs this
					// window with its previous detection, if any.
					x0 := int(float64(ax*s.Stride) * fx)
					for cj < len(cached) && cached[cj].Box.X0 < x0 {
						cj++
					}
					if cj < len(cached) && cached[cj].Box.X0 == x0 {
						*out = append(*out, cached[cj]) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
						cj++
					}
					return true
				}
				switch {
				case useQuant && !useEarly:
					// Quantized plane: integer decisions, margins of
					// accepted windows resolved by the float oracle.
					qresp := qresp[rt.level]
					for ax := 0; ax < nax; ax++ {
						if serve(ax, &dets) {
							continue
						}
						if !pass(ax * s.Stride) {
							continue
						}
						_, dec := sc.qbm.DecideAt(qresp, nax, ax, ay)
						if m, ok := resolveQuant(&sc.bm, dec, blocks, lat, ax, ay, s.Thresh); ok {
							emit(ax, m)
						}
					}
				case useQuant:
					// Quantized on-demand with integer early exit.
					qblocks := st.qgrids[rt.level]
					for ax := 0; ax < nax; ax++ {
						if serve(ax, &dets) {
							continue
						}
						if !pass(ax * s.Stride) {
							continue
						}
						_, dec := sc.qbm.ScoreAt(qblocks, lat, ax, ay, true)
						if m, ok := resolveQuant(&sc.bm, dec, blocks, lat, ax, ay, s.Thresh); ok {
							emit(ax, m)
						}
					}
				case !useEarly:
					// Full-margin plane (NoEarlyReject): a window's
					// margin is the bias plus its contiguous cached
					// partials.
					resp := resp[rt.level]
					for ax := 0; ax < nax; ax++ {
						if serve(ax, &dets) {
							continue
						}
						if !pass(ax * s.Stride) {
							continue
						}
						if m := sc.bm.MarginAt(resp, nax, ax, ay); m > s.Thresh {
							emit(ax, m)
						}
					}
				default:
					// Early reject, position-major over the row: the
					// windows neither served nor prefilter-rejected
					// take each block position together and drop out
					// as their bounds close (svm.EarlyMarginRow).
					// Cached and scored detections then merge in
					// ascending x, the order the per-window loop
					// produced.
					rs.cands, rs.kept = rs.cands[:0], rs.kept[:0]
					for ax := 0; ax < nax; ax++ {
						if serve(ax, &rs.kept) || !pass(ax*s.Stride) {
							continue
						}
						rs.cands = append(rs.cands, ax) // lint:alloc grows to the widest row once per pooled scratch
					}
					kept := rs.kept
					for _, sv := range sc.bm.EarlyMarginRow(blocks, lat, ay, rs.cands, s.Thresh, &rs.row) {
						if sv.Margin > s.Thresh {
							x0 := box(sv.AX * s.Stride).X0
							for len(kept) > 0 && kept[0].Box.X0 < x0 {
								dets = append(dets, kept[0]) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
								kept = kept[1:]
							}
							emit(sv.AX, sv.Margin)
						}
					}
					dets = append(dets, kept...) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
				}
			} else {
				for x := 0; x+s.WinW <= level.W; x += s.Stride {
					if !pass(x) {
						continue
					}
					if cap(rs.desc) < descLen {
						rs.desc = make([]float64, descLen) // lint:alloc once per worker per scan
					}
					desc := fm.Descriptor(x, rt.y, s.WinW, s.WinH, rs.desc[:descLen])
					if desc == nil {
						// Window off the cell grid (stride not a
						// multiple of the cell size, or partial border
						// cells): fall back to direct extraction.
						desc = s.Cfg.Extract(level.SubImage(img.Rect{X0: x, Y0: rt.y, X1: x + s.WinW, Y1: rt.y + s.WinH}))
					}
					if m := s.Model.Margin(desc); m > s.Thresh {
						dets = append(dets, Detection{Box: box(x), Score: m, Kind: s.Kind}) // lint:alloc detections are rare post-threshold events; no useful pre-size exists
					}
				}
			}
			results[ti] = dets
		})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, r := range results {
		total += len(r)
	}
	all := make([]Detection, 0, total)
	for _, r := range results {
		all = append(all, r...)
	}
	if part != nil {
		part.storeRows(results, st.gen)
	}
	lap(&t.Windows)
	if timed {
		t.BlockPath = useBlocks
		t.Quantized = useQuant
		*tm = t
	}
	return all, nil
}

// detect is run plus NMS, with errors attributed to the detector.
func (s windowSweep) detect(ctx context.Context, st *FrameStack, workers int, tm *ScanTimings,
	nmsIoU float64, what string) ([]Detection, error) {
	dets, err := s.run(ctx, st, workers, tm)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s detect: %w", what, err)
	}
	return NMS(dets, nmsIoU), nil
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
		t.Response, t.Windows, t.BlockPath, t.Quantized = sw.Response, sw.Windows, sw.BlockPath, sw.Quantized
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
