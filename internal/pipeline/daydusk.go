package pipeline

import (
	"context"
	"fmt"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// VehicleWindow is the classification window side for the day/dusk
// vehicle detector (rear views are roughly square).
const VehicleWindow = 64

// DayDuskDetector is the HOG+SVM pipeline of Fig. 2. The same
// hardware is instantiated for day and dusk; only the BRAM-resident
// model differs, which is why the two form a single reconfigurable
// configuration in the paper.
type DayDuskDetector struct {
	HOG    hog.Config
	Model  *svm.Model
	Stride int     // window step in pixels at each pyramid level
	Scale  float64 // pyramid downscale per level
	Thresh float64 // margin threshold for single-crop classification
	// DetectThresh is the (stricter) margin threshold for full-frame
	// scanning, where the detector sees thousands of windows per frame
	// and near-boundary responses would flood the output with false
	// positives.
	DetectThresh float64
	NMSIoU       float64
	ScanConfig
}

// NewDayDuskDetector wraps a trained model with default scan settings.
func NewDayDuskDetector(m *svm.Model) *DayDuskDetector {
	return &DayDuskDetector{
		HOG:          hog.DefaultConfig(),
		Model:        m,
		Stride:       16,
		Scale:        1.25,
		Thresh:       0,
		DetectThresh: 0.5,
		NMSIoU:       0.3,
	}
}

// ClassifyCrop runs the single-window classification used in the
// Table I evaluation: the crop is resized to the canonical window and
// scored against the model.
func (d *DayDuskDetector) ClassifyCrop(g *img.Gray) bool {
	return d.MarginCrop(g) > d.Thresh
}

// MarginCrop returns the SVM margin of a crop.
func (d *DayDuskDetector) MarginCrop(g *img.Gray) float64 {
	if g.W != VehicleWindow || g.H != VehicleWindow {
		g = img.ResizeGray(g, VehicleWindow, VehicleWindow)
	}
	return d.Model.Margin(d.HOG.Extract(g))
}

// Detect scans the full frame at multiple scales and returns
// NMS-filtered vehicle detections. It runs on the calling goroutine
// without cancellation; see DetectCtx for the parallel engine.
func (d *DayDuskDetector) Detect(g *img.Gray) []Detection {
	dets, _ := d.DetectCtx(context.Background(), g, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return dets
}

// DetectCtx is Detect with cancellation and a bounded worker pool:
// the per-frame HOG feature cache is computed once per pyramid level
// and window rows are fanned out across workers goroutines
// (workers <= 0 means NumCPU). Output is identical for every worker
// count. On cancellation it returns the context's error wrapped; a
// stride off the cell grid, or a model that does not fit the window,
// returns ErrScanGeometry wrapped.
func (d *DayDuskDetector) DetectCtx(ctx context.Context, g *img.Gray, workers int) ([]Detection, error) {
	return d.DetectTimedCtx(ctx, g, workers, nil)
}

// DetectTimedCtx is DetectCtx with per-stage wall-clock attribution;
// tm may be nil and is written only on success. It builds a one-sweep
// frame stack over g and sweeps it (see SweepCtx).
func (d *DayDuskDetector) DetectTimedCtx(ctx context.Context, g *img.Gray, workers int, tm *ScanTimings) ([]Detection, error) {
	return detectOnce(ctx, d.Temporal, g, workers, tm, d.sweep(), d.NMSIoU, "day-dusk")
}

// SweepCtx runs this detector's window sweep over a frame stack shared
// with the frame's other sweeps, returning NMS-filtered detections
// identical to DetectCtx on the stack's frame. The stack is brought up
// to what the sweep reads first; tm (may be nil; written only on
// success) receives the sweep's Response/Windows stages, the stack's
// own stages are FrameStack.Timings.
func (d *DayDuskDetector) SweepCtx(ctx context.Context, st *FrameStack, workers int, tm *ScanTimings) ([]Detection, error) {
	return d.sweep().detect(ctx, st, workers, tm, d.NMSIoU, "day-dusk")
}

// CheckGeometry reports, wrapping ErrScanGeometry, a stride or model
// the detector's sweep could not score; nil means every scan call
// passes that check.
func (d *DayDuskDetector) CheckGeometry() error { return d.sweep().check() }

func (d *DayDuskDetector) sweep() windowSweep {
	return windowSweep{
		Cfg: d.HOG, Model: d.Model,
		WinW: VehicleWindow, WinH: VehicleWindow,
		Stride: d.Stride, Scale: d.Scale, Thresh: d.DetectThresh,
		Kind: KindVehicle, ScanConfig: d.ScanConfig,
	}
}

// FeatureExtractor turns a fixed-size grayscale window into a feature
// vector. hog.Config and hog.PIHOG both satisfy it, so the pipeline
// can be trained with either feature (the PIHOG comparison of the
// related work is a benchmark in this repo).
type FeatureExtractor interface {
	Extract(*img.Gray) []float64
}

// TrainCropSVM trains a linear SVM over the dataset with an arbitrary
// feature extractor at the given window geometry.
func TrainCropSVM(ds *synth.Dataset, fx FeatureExtractor, winW, winH int, opts svm.Options) (*svm.Model, error) {
	var p svm.Problem
	add := func(crops []*img.Gray, label float64) {
		for _, g := range crops {
			crop := g
			if crop.W != winW || crop.H != winH {
				crop = img.ResizeGray(crop, winW, winH)
			}
			p.X = append(p.X, fx.Extract(crop))
			p.Y = append(p.Y, label)
		}
	}
	add(ds.Pos, 1)
	add(ds.Neg, -1)
	m, err := svm.Train(p, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: train crop SVM: %w", err)
	}
	return m, nil
}

// TrainVehicleSVM extracts HOG descriptors from every crop of the
// dataset and trains a linear SVM — the Fig. 1 training flow
// (HOG feature extraction + LibLINEAR).
func TrainVehicleSVM(ds *synth.Dataset, cfg hog.Config, opts svm.Options) (*svm.Model, error) {
	var p svm.Problem
	for _, g := range ds.Pos {
		crop := g
		if crop.W != VehicleWindow || crop.H != VehicleWindow {
			crop = img.ResizeGray(crop, VehicleWindow, VehicleWindow)
		}
		p.X = append(p.X, cfg.Extract(crop))
		p.Y = append(p.Y, 1)
	}
	for _, g := range ds.Neg {
		crop := g
		if crop.W != VehicleWindow || crop.H != VehicleWindow {
			crop = img.ResizeGray(crop, VehicleWindow, VehicleWindow)
		}
		p.X = append(p.X, cfg.Extract(crop))
		p.Y = append(p.Y, -1)
	}
	m, err := svm.Train(p, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: train vehicle SVM: %w", err)
	}
	return m, nil
}

// CombineDatasets merges two crop datasets (the paper's "combined"
// model is trained on the union of UPM and SYSU training data).
func CombineDatasets(name string, a, b *synth.Dataset) *synth.Dataset {
	out := &synth.Dataset{Name: name, W: a.W, H: a.H}
	out.Pos = append(append([]*img.Gray{}, a.Pos...), b.Pos...)
	out.Neg = append(append([]*img.Gray{}, a.Neg...), b.Neg...)
	out.VeryDark = append(append([]bool{}, a.VeryDark...), b.VeryDark...)
	for len(out.VeryDark) < len(out.Pos) {
		out.VeryDark = append(out.VeryDark, false)
	}
	return out
}
