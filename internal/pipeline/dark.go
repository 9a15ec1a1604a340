package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"advdet/internal/dbn"
	"advdet/internal/img"
	"advdet/internal/par"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// DarkConfig parameterizes the dark pipeline of Figs. 3–4.
type DarkConfig struct {
	// LumaThresh is the luminance threshold isolating light sources.
	LumaThresh uint8
	// CrLow/CrHigh select the red-chroma band of taillights.
	CrLow, CrHigh uint8
	// Downsample is an explicit decimation factor; when zero the
	// factor is derived from TargetWidth per frame (1920-wide frames
	// decimate by 3 to the paper's 640x360 working map).
	Downsample int
	// TargetWidth is the working-map width used when Downsample is
	// zero (default 640).
	TargetWidth int
	// CloseRadius is the morphological closing structuring radius.
	CloseRadius int
	// Stride is the DBN sliding-window step (2 in the paper).
	Stride int
	// MinProb is the acceptance probability for a light window.
	MinProb float64
	// MaxPairDistFactor bounds the pair separation as a multiple of
	// the mean lamp width ("the distance between the two taillights is
	// expected to be within a specific range").
	MaxPairDistFactor float64
	// UseClosing and UseChroma exist for the ablation benches.
	UseClosing bool
	UseChroma  bool
	// UsePairSVM selects SVM spatial correlation (paper) vs. a pure
	// geometric gate (ablation baseline).
	UsePairSVM bool
}

// DefaultDarkConfig returns the paper's settings.
func DefaultDarkConfig() DarkConfig {
	return DarkConfig{
		LumaThresh:        90,
		CrLow:             150,
		CrHigh:            255,
		TargetWidth:       640,
		CloseRadius:       1,
		Stride:            dbn.Stride,
		MinProb:           0.5,
		MaxPairDistFactor: 9,
		UseClosing:        true,
		UseChroma:         true,
		UsePairSVM:        true,
	}
}

// Light is a taillight candidate in downsampled coordinates, with the
// DBN's size/shape class.
type Light struct {
	Box   img.Rect
	Class int // dbn.ClassSmall..ClassLarge
	Prob  float64
}

// DarkDetector is the trained dark pipeline.
type DarkDetector struct {
	Cfg     DarkConfig
	Net     *dbn.Network
	PairSVM *svm.Model
}

// NewDarkDetector assembles a detector from its trained components.
func NewDarkDetector(cfg DarkConfig, net *dbn.Network, pairSVM *svm.Model) *DarkDetector {
	return &DarkDetector{Cfg: cfg, Net: net, PairSVM: pairSVM}
}

// FactorFor returns the effective decimation factor for a frame of
// width w: the explicit Downsample if set, otherwise the factor that
// brings the frame closest to TargetWidth.
func (c DarkConfig) FactorFor(w int) int {
	if c.Downsample > 0 {
		return c.Downsample
	}
	tw := c.TargetWidth
	if tw <= 0 {
		tw = 640
	}
	f := (w + tw/2) / tw
	if f < 1 {
		f = 1
	}
	return f
}

// ErrBadFrame reports a dark-pipeline input that is not a frame: nil,
// zero-size, a pixel buffer whose length is not 3·W·H, or a gray plane
// whose size differs from the frame's. DetectCtx and DetectGrayCtx
// return it wrapped; test with errors.Is.
var ErrBadFrame = errors.New("pipeline: malformed frame")

// checkFrame validates a dark-pipeline input; gray may be nil.
func checkFrame(frame *img.RGB, gray *img.Gray) error {
	switch {
	case frame == nil:
		return fmt.Errorf("%w: nil frame", ErrBadFrame)
	case frame.W <= 0 || frame.H <= 0:
		return fmt.Errorf("%w: frame size %dx%d", ErrBadFrame, frame.W, frame.H)
	case len(frame.Pix) != 3*frame.W*frame.H:
		return fmt.Errorf("%w: %d RGB bytes for a %dx%d frame, want %d",
			ErrBadFrame, len(frame.Pix), frame.W, frame.H, 3*frame.W*frame.H)
	case gray != nil && (gray.W != frame.W || gray.H != frame.H || len(gray.Pix) != frame.W*frame.H):
		return fmt.Errorf("%w: %dx%d gray plane of %d bytes for a %dx%d frame",
			ErrBadFrame, gray.W, gray.H, len(gray.Pix), frame.W, frame.H)
	}
	return nil
}

// darkScratch is the working memory of one dark-pipeline call: the
// gray plane it converts when the caller has none, the mask, closing
// and closing-intermediate binaries, the per-window-row hit and stat
// arenas, and the DBN sweep's per-worker locals. One DarkDetector
// serves every stream of an Engine, so a call borrows its scratch from
// a process-wide pool instead of the detector owning one; the steady
// state allocates none of it. Nothing borrowed escapes a call.
type darkScratch struct {
	gray              *img.Gray
	mask, closed, tmp *img.Binary
	rowHits           [][]Light   // per window row, in x order
	rowStats          []ScanStats // per window row
	hits              []Light     // every row's hits in raster order
	workers           []*darkWorker
	nextWorker        atomic.Int32 // workers handed out this sweep
	// newWorker is worker as a func value, bound once per pooled
	// scratch rather than once per sweep.
	newWorker func() *darkWorker
}

// darkWorker is one DBN-sweep worker's scratch: the float window fed
// to the network, a window row's per-column foreground prefix sums,
// and the network's forward-pass buffers.
type darkWorker struct {
	window [dbn.Window * dbn.Window]float64
	colPre []int32
	net    dbn.Scratch
}

var darkPool = sync.Pool{New: func() any {
	s := new(darkScratch)
	s.newWorker = s.worker
	return s
}}

func borrowDark() *darkScratch { return darkPool.Get().(*darkScratch) }

func releaseDark(s *darkScratch) {
	darkPool.Put(s) // lint:alloc sync.Pool.Put boxes once per call, not per window
}

// beginWorkers readies one worker scratch per sweep worker; worker
// hands them out.
func (s *darkScratch) beginWorkers(n int) {
	for len(s.workers) < n {
		s.workers = append(s.workers, new(darkWorker)) // lint:alloc grows to the worker count once per pooled scratch
	}
	s.nextWorker.Store(0)
}

// worker is the par.ForEachLocal local constructor, called once per
// sweep worker.
func (s *darkScratch) worker() *darkWorker {
	return s.workers[s.nextWorker.Add(1)-1]
}

// setRows sizes the per-row arenas for n window rows, keeping each
// row's hit buffer for reuse.
func (s *darkScratch) setRows(n int) {
	for len(s.rowHits) < n {
		s.rowHits = append(s.rowHits, nil) // lint:alloc grows to the frame's window-row count once per pooled scratch
	}
	if cap(s.rowStats) < n {
		s.rowStats = make([]ScanStats, n) // lint:alloc grows to the frame's window-row count once per pooled scratch
	}
	s.rowStats = s.rowStats[:n]
}

// maskBands is the number of mask-row bands a frame's front half runs
// in: up to one per worker (workers <= 0 means NumCPU), each covering
// at least grayBandPixels source pixels as BeginRGB's bands do, so
// frames under two bands (640x360 included) run on the calling
// goroutine without a fan-out.
func (d *DarkDetector) maskBands(frame *img.RGB, workers int) int {
	_, mh := img.MaskSize(frame.W, frame.H, d.Cfg.FactorFor(frame.W))
	return max(1, min(par.Workers(workers), frame.W*frame.H/grayBandPixels, mh))
}

// preprocess runs the front half of the pipeline into s in bands of
// mask rows, each band reading its own source rows once: the gray
// conversion when gray is nil (into s.gray), the taillight mask
// (threshold, chroma gate and decimation in one kernel), then closing
// over the whole map. It returns the binary map the DBN sweeps, owned
// by s. The map is the same for any band count.
//
// lint:hotpath
func (d *DarkDetector) preprocess(ctx context.Context, s *darkScratch, frame *img.RGB, gray *img.Gray, bands int) (*img.Binary, error) {
	p := img.MaskParams{
		LumaThresh: d.Cfg.LumaThresh,
		CrLow:      d.Cfg.CrLow,
		CrHigh:     d.Cfg.CrHigh,
		UseChroma:  d.Cfg.UseChroma,
		Factor:     d.Cfg.FactorFor(frame.W),
	}
	mw, mh := img.MaskSize(frame.W, frame.H, p.Factor)
	s.mask = img.BinaryInto(s.mask, mw, mh)
	convert := gray == nil
	if convert {
		s.gray = img.GrayInto(s.gray, frame.W, frame.H)
		gray = s.gray
	}
	mask := s.mask
	if bands <= 1 {
		maskBand(mask, gray, frame, p, convert, 0, mh)
	} else if err := par.ForEach(ctx, bands, bands, func(b int) {
		maskBand(mask, gray, frame, p, convert, mh*b/bands, mh*(b+1)/bands)
	}); err != nil {
		return nil, err
	}
	if !d.Cfg.UseClosing {
		return mask, nil
	}
	s.closed = img.BinaryInto(s.closed, mw, mh)
	s.tmp = img.BinaryInto(s.tmp, mw, mh)
	img.CloseInto(s.closed, s.tmp, mask, d.Cfg.CloseRadius)
	return s.closed, nil
}

// maskBand writes mask rows [oy0, oy1), first converting their source
// rows to gray when convert is set.
func maskBand(mask *img.Binary, gray *img.Gray, frame *img.RGB, p img.MaskParams, convert bool, oy0, oy1 int) {
	if convert {
		img.RGBToGrayRows(gray, frame, min(oy0*p.Factor, frame.H), min(oy1*p.Factor, frame.H))
	}
	img.TaillightMaskRows(mask, gray, frame, p, oy0, oy1)
}

// Preprocess runs the front half of the pipeline — split channels,
// dual threshold, downsample, closing — returning the binary map the
// DBN scans. Exposed so the SoC model and ablation benches can tap the
// intermediate result. It runs the same banded kernel as DetectCtx on
// up to NumCPU workers. frame must be well formed (see ErrBadFrame).
func (d *DarkDetector) Preprocess(frame *img.RGB) *img.Binary {
	if err := checkFrame(frame, nil); err != nil {
		// lint:invariant the intermediate-map tap keeps its error-free signature; DetectCtx reports the same check as ErrBadFrame
		panic(err)
	}
	s := borrowDark()
	defer releaseDark(s)
	// The only error is the context's, and a background one never ends.
	b, _ := d.preprocess(context.Background(), s, frame, nil, d.maskBands(frame, 0)) // lint:ctxroot error-free tap; background ctx cannot fail
	return b.Clone()
}

// ScanStats reports how much work the ROI gate saved on the last
// scan — the mechanism that lets the DBN stage hold 50 fps even
// though a DBN evaluation costs ~4 cycles per sample.
type ScanStats struct {
	Windows   int // window positions visited
	Evaluated int // windows with foreground, sent to the DBN
	Hits      int // windows classified as a lamp
}

// GatedFraction returns the share of windows the ROI gate skipped.
func (s ScanStats) GatedFraction() float64 {
	if s.Windows == 0 {
		return 0
	}
	return 1 - float64(s.Evaluated)/float64(s.Windows)
}

// ScanLights slides the 9x9 DBN over the binary map with the
// configured stride, keeps windows classified as a lamp with
// sufficient probability, and merges overlapping hits into light
// candidates.
func (d *DarkDetector) ScanLights(b *img.Binary) []Light {
	lights, _ := d.ScanLightsStats(b)
	return lights
}

// ScanLightsStats is ScanLights with work accounting, on the calling
// goroutine; see ScanLightsStatsCtx for the parallel engine.
func (d *DarkDetector) ScanLightsStats(b *img.Binary) ([]Light, ScanStats) {
	lights, stats, _ := d.ScanLightsStatsCtx(context.Background(), b, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return lights, stats
}

// ScanLightsStatsCtx fans the window rows of the DBN scan across
// workers goroutines (workers <= 0 means NumCPU). Each row owns its
// output slot and rows are reassembled in raster order, so the merged
// light list is identical for every worker count. On cancellation it
// returns the context's error.
func (d *DarkDetector) ScanLightsStatsCtx(ctx context.Context, b *img.Binary, workers int) ([]Light, ScanStats, error) {
	s := borrowDark()
	defer releaseDark(s)
	stats, err := d.sweep(ctx, s, b, workers)
	if err != nil {
		return nil, ScanStats{}, err
	}
	return mergeLights(s.hits), stats, nil
}

// sweep slides the 9x9 DBN over b with the configured stride, one
// window row per task, leaving every row's hits in s.hits in raster
// order and returning the summed stats.
//
// lint:hotpath
func (d *DarkDetector) sweep(ctx context.Context, s *darkScratch, b *img.Binary, workers int) (ScanStats, error) {
	rows := 0
	if b.H >= dbn.Window {
		rows = (b.H-dbn.Window)/d.Cfg.Stride + 1
	}
	s.setRows(rows)
	s.beginWorkers(min(par.Workers(workers), rows))
	if err := par.ForEachLocal(ctx, workers, rows, s.newWorker, func(i int, w *darkWorker) {
		s.rowHits[i], s.rowStats[i] = d.sweepRow(b, i*d.Cfg.Stride, w, s.rowHits[i][:0])
	}); err != nil {
		return ScanStats{}, err
	}
	var stats ScanStats
	s.hits = s.hits[:0]
	for i := 0; i < rows; i++ {
		s.hits = append(s.hits, s.rowHits[i]...) // lint:alloc grows the pooled hit arena to its high-water mark
		stats.Windows += s.rowStats[i].Windows
		stats.Evaluated += s.rowStats[i].Evaluated
		stats.Hits += s.rowStats[i].Hits
	}
	return stats, nil
}

// sweepRow scans the window row at y, appending its lamp hits to hits.
// The ROI gate skips windows with no foreground at all (the RTL gates
// the DBN the same way to hold 50 fps). A window's foreground count is
// the difference of two prefix sums over the row's 9-pixel column
// counts, so the gate is O(1) per window; only windows that pass are
// expanded to floats and classified.
//
// lint:hotpath
func (d *DarkDetector) sweepRow(b *img.Binary, y int, w *darkWorker, hits []Light) ([]Light, ScanStats) {
	const side = dbn.Window
	if cap(w.colPre) < b.W+1 {
		w.colPre = make([]int32, b.W+1) // lint:alloc grows to the map width once per pooled worker
	}
	pre := w.colPre[:b.W+1]
	clear(pre)
	cols := pre[1:]
	for wy := 0; wy < side; wy++ {
		for x, v := range b.Pix[(y+wy)*b.W:][:b.W] {
			cols[x] += int32(v)
		}
	}
	for x := 1; x <= b.W; x++ {
		pre[x] += pre[x-1]
	}
	var st ScanStats
	for x := 0; x+side <= b.W; x += d.Cfg.Stride {
		st.Windows++
		if pre[x+side] == pre[x] {
			continue
		}
		st.Evaluated++
		for wy := 0; wy < side; wy++ {
			for wx, v := range b.Pix[(y+wy)*b.W+x:][:side] {
				w.window[wy*side+wx] = float64(v)
			}
		}
		class, prob := d.Net.ClassifyWith(&w.net, w.window[:])
		if class == dbn.ClassNone || prob < d.Cfg.MinProb {
			continue
		}
		st.Hits++
		hits = append(hits, Light{ // lint:alloc grows the pooled row arena to its high-water mark
			Box:   img.Rect{X0: x, Y0: y, X1: x + side, Y1: y + side},
			Class: class,
			Prob:  prob,
		})
	}
	return hits, st
}

// mergeLights unions overlapping window hits into one candidate per
// lamp, keeping the highest-probability class.
func mergeLights(hits []Light) []Light {
	var out []Light
	used := make([]bool, len(hits))
	for i := range hits {
		if used[i] {
			continue
		}
		cur := hits[i]
		used[i] = true
		changed := true
		for changed {
			changed = false
			for j := range hits {
				if used[j] {
					continue
				}
				if cur.Box.Intersect(hits[j].Box).Area() > 0 {
					cur.Box = cur.Box.Union(hits[j].Box)
					if hits[j].Prob > cur.Prob {
						cur.Prob = hits[j].Prob
						cur.Class = hits[j].Class
					}
					used[j] = true
					changed = true
				}
			}
		}
		out = append(out, cur)
	}
	return out
}

// PairFeatures computes the spatial-correlation feature vector for a
// candidate lamp pair: vertical misalignment, separation relative to
// lamp size, size ratio, and class agreement.
func PairFeatures(a, b Light) []float64 {
	f := pairFeatures(a, b)
	return f[:]
}

// pairFeatures is PairFeatures by value, so the per-pair loop keeps
// the vector on the stack.
func pairFeatures(a, b Light) [4]float64 {
	acx, acy := a.Box.Center()
	bcx, bcy := b.Box.Center()
	meanW := float64(a.Box.W()+b.Box.W()) / 2
	meanH := float64(a.Box.H()+b.Box.H()) / 2
	if meanW == 0 {
		meanW = 1
	}
	if meanH == 0 {
		meanH = 1
	}
	dy := math.Abs(float64(acy-bcy)) / meanH
	sep := math.Abs(float64(acx-bcx)) / meanW
	sizeRatio := math.Log(float64(a.Box.Area()+1) / float64(b.Box.Area()+1))
	classDiff := math.Abs(float64(a.Class - b.Class))
	return [4]float64{dy, sep, math.Abs(sizeRatio), classDiff}
}

// geometricPairGate is the ablation baseline: fixed thresholds on the
// same features the SVM sees.
func (d *DarkDetector) geometricPairGate(f []float64) bool {
	return f[0] < 0.8 && f[1] > 1.2 && f[1] < d.Cfg.MaxPairDistFactor && f[2] < 0.9 && f[3] <= 1
}

// Detect runs the full dark pipeline on an RGB frame and returns
// vehicle detections in frame coordinates, on the calling goroutine;
// see DetectCtx for the parallel engine.
func (d *DarkDetector) Detect(frame *img.RGB) []Detection {
	dets, _ := d.DetectCtx(context.Background(), frame, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return dets
}

// DetectCtx is Detect with cancellation and a bounded worker pool
// (workers <= 0 means NumCPU). The frame is converted to gray in the
// call's scratch, band by band with the taillight mask; otherwise it
// is DetectGrayCtx. Output is identical for every worker count.
func (d *DarkDetector) DetectCtx(ctx context.Context, frame *img.RGB, workers int) ([]Detection, error) {
	return d.detect(ctx, frame, nil, workers)
}

// DetectGrayCtx is DetectCtx over a gray plane the caller already has
// for this frame (img.RGBToGray of frame, e.g. a FrameStack's source),
// so a frame that also sweeps a HOG model converts its pixels once.
// The luma test reads gray, which is bit-equal to the YCbCr luma; only
// the chroma gate reads the RGB frame. A malformed frame or a gray
// plane of another size returns an error wrapping ErrBadFrame.
func (d *DarkDetector) DetectGrayCtx(ctx context.Context, frame *img.RGB, gray *img.Gray, workers int) ([]Detection, error) {
	if gray == nil {
		return nil, fmt.Errorf("%w: nil gray plane", ErrBadFrame)
	}
	return d.detect(ctx, frame, gray, workers)
}

// detect runs the whole pipeline in a pooled scratch: the banded front
// half, the gated DBN sweep and the pair back half. gray nil means
// convert in the scratch.
func (d *DarkDetector) detect(ctx context.Context, frame *img.RGB, gray *img.Gray, workers int) ([]Detection, error) {
	if err := checkFrame(frame, gray); err != nil {
		return nil, err
	}
	s := borrowDark()
	defer releaseDark(s)
	b, err := d.preprocess(ctx, s, frame, gray, d.maskBands(frame, workers))
	if err == nil {
		_, err = d.sweep(ctx, s, b, workers)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: dark detect: %w", err)
	}
	return d.pairLights(mergeLights(s.hits), frame, d.Cfg.FactorFor(frame.W)), nil
}

// pairLights runs the spatial-correlation back half of the pipeline:
// candidate lamps are paired, gated, scored, and expanded to vehicle
// boxes in full-resolution frame coordinates.
func (d *DarkDetector) pairLights(lights []Light, frame *img.RGB, factor int) []Detection {
	var dets []Detection
	for i := 0; i < len(lights); i++ {
		for j := i + 1; j < len(lights); j++ {
			a, c := lights[i], lights[j]
			// Hard distance gate: "only a particular region around
			// each detected taillight is processed for matching".
			acx, _ := a.Box.Center()
			ccx, _ := c.Box.Center()
			meanW := float64(a.Box.W()+c.Box.W()) / 2
			if math.Abs(float64(acx-ccx)) > d.Cfg.MaxPairDistFactor*meanW {
				continue
			}
			f := pairFeatures(a, c)
			var ok bool
			var score float64
			if d.Cfg.UsePairSVM && d.PairSVM != nil {
				score = d.PairSVM.Margin(f[:])
				ok = score > 0
			} else {
				ok = d.geometricPairGate(f[:])
				score = 1
			}
			if !ok {
				continue
			}
			// Vehicle box: union of the lamp pair, expanded to body
			// extent, mapped back to full resolution.
			u := a.Box.Union(c.Box)
			expandY := u.W() / 2
			box := img.Rect{
				X0: (u.X0 - u.W()/8) * factor,
				Y0: (u.Y0 - expandY) * factor,
				X1: (u.X1 + u.W()/8) * factor,
				Y1: (u.Y1 + expandY/2) * factor,
			}
			box = box.Intersect(img.Rect{X0: 0, Y0: 0, X1: frame.W, Y1: frame.H})
			if box.Empty() {
				continue
			}
			dets = append(dets, Detection{Box: box, Score: score + a.Prob + c.Prob, Kind: KindVehicle})
		}
	}
	return NMS(dets, 0.3)
}

// ClassifyCrop decides whether a dark RGB crop contains a vehicle, the
// operation behind the "95% on the SYSU subset" evaluation of §III-B.
func (d *DarkDetector) ClassifyCrop(frame *img.RGB) bool {
	return len(d.Detect(frame)) > 0
}

// TrainPairSVM trains the spatial-correlation SVM on synthetic lamp
// pair geometry: positives follow the taillight-pair distribution
// (level, similar size, separation a few lamp-widths), negatives
// violate at least one constraint.
func TrainPairSVM(seed uint64, n int, opts svm.Options) (*svm.Model, error) {
	rng := synth.NewRNG(seed)
	var p svm.Problem
	mkLight := func(cx, cy, w, h int, class int) Light {
		return Light{Box: img.Rect{X0: cx - w/2, Y0: cy - h/2, X1: cx + w/2 + 1, Y1: cy + h/2 + 1}, Class: class}
	}
	for i := 0; i < n; i++ {
		// Positive pair.
		w := rng.IntRange(3, 12)
		h := w * rng.IntRange(70, 110) / 100
		cls := rng.IntRange(1, 3)
		sep := int(float64(w) * rng.Range(2.0, 7.0))
		y := rng.IntRange(20, 200)
		x := rng.IntRange(20, 400)
		dy := rng.IntRange(0, h/4)
		a := mkLight(x, y, w, h, cls)
		b := mkLight(x+sep, y+dy, w+rng.IntRange(-1, 1), h+rng.IntRange(-1, 1), cls)
		p.X = append(p.X, PairFeatures(a, b))
		p.Y = append(p.Y, 1)

		// Negative pair: break one property at random.
		w2 := rng.IntRange(3, 12)
		h2 := w2
		switch rng.Intn(3) {
		case 0: // vertical misalignment (e.g. road light above a lamp)
			a = mkLight(x, y, w2, h2, cls)
			b = mkLight(x+sep, y+h2*rng.IntRange(2, 6), w2, h2, cls)
		case 1: // size mismatch (near lamp vs far lamp of another car)
			a = mkLight(x, y, w2, h2, 1)
			b = mkLight(x+sep, y+dy, w2*4, h2*4, 3)
		default: // implausible separation (two independent cars)
			a = mkLight(x, y, w2, h2, cls)
			b = mkLight(x+w2*rng.IntRange(12, 30), y+dy, w2, h2, cls)
		}
		p.X = append(p.X, PairFeatures(a, b))
		p.Y = append(p.Y, -1)
	}
	m, err := svm.Train(p, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: train pair SVM: %w", err)
	}
	return m, nil
}

// TrainDarkDetector trains the full dark pipeline: the DBN on labeled
// 9x9 windows (cropped taillights, per the paper's use of SYSU
// training images) and the pair SVM on lamp-pair geometry.
func TrainDarkDetector(seed uint64, cfg DarkConfig, dbnCfg dbn.Config, windowsPerClass int) (*DarkDetector, error) {
	X, labels := synth.TaillightWindowSet(seed, windowsPerClass)
	net, err := dbn.Train(X, labels, dbnCfg, synth.NewRNG(seed^0x5eed))
	if err != nil {
		return nil, fmt.Errorf("pipeline: train DBN: %w", err)
	}
	pairOpts := svm.DefaultOptions()
	pair, err := TrainPairSVM(seed^0xbeef, 400, pairOpts)
	if err != nil {
		return nil, err
	}
	return NewDarkDetector(cfg, net, pair), nil
}
