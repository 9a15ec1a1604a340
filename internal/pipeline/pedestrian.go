package pipeline

import (
	"context"
	"fmt"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// Pedestrian window geometry (upright 1:2 aspect, as in the DAC'17
// multi-scale pedestrian pipeline the static partition instantiates).
const (
	PedWindowW = 32
	PedWindowH = 64
)

// PedestrianDetector is the static-partition HOG+SVM pedestrian
// pipeline; it keeps running during partial reconfiguration.
type PedestrianDetector struct {
	HOG    hog.Config
	Model  *svm.Model
	Stride int
	Scale  float64
	Thresh float64 // margin threshold for single-crop classification
	// DetectThresh is the stricter margin threshold for full-frame
	// scanning (see DayDuskDetector.DetectThresh).
	DetectThresh float64
	NMSIoU       float64
	ScanConfig
}

// NewPedestrianDetector wraps a trained model with default scan
// settings.
func NewPedestrianDetector(m *svm.Model) *PedestrianDetector {
	return &PedestrianDetector{
		HOG:          hog.DefaultConfig(),
		Model:        m,
		Stride:       8,
		Scale:        1.25,
		Thresh:       0,
		DetectThresh: 1.0,
		NMSIoU:       0.3,
	}
}

// ClassifyCrop scores a single pedestrian-window crop.
func (d *PedestrianDetector) ClassifyCrop(g *img.Gray) bool {
	if g.W != PedWindowW || g.H != PedWindowH {
		g = img.ResizeGray(g, PedWindowW, PedWindowH)
	}
	return d.Model.Margin(d.HOG.Extract(g)) > d.Thresh
}

// Detect scans the frame at multiple scales for pedestrians on the
// calling goroutine; see DetectCtx for the parallel engine.
func (d *PedestrianDetector) Detect(g *img.Gray) []Detection {
	dets, _ := d.DetectCtx(context.Background(), g, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return dets
}

// DetectCtx is Detect with cancellation and a bounded worker pool
// sharing one per-level feature cache (workers <= 0 means NumCPU).
// Output is identical for every worker count. Errors are
// DayDuskDetector.DetectCtx's.
func (d *PedestrianDetector) DetectCtx(ctx context.Context, g *img.Gray, workers int) ([]Detection, error) {
	return d.DetectTimedCtx(ctx, g, workers, nil)
}

// DetectTimedCtx is DetectCtx with per-stage wall-clock attribution;
// tm may be nil and is written only on success. It builds a one-sweep
// frame stack over g and sweeps it (see SweepCtx).
func (d *PedestrianDetector) DetectTimedCtx(ctx context.Context, g *img.Gray, workers int, tm *ScanTimings) ([]Detection, error) {
	return detectOnce(ctx, d.Temporal, g, workers, tm, d.sweep(), d.NMSIoU, "pedestrian")
}

// SweepCtx runs this detector's window sweep over a frame stack shared
// with the frame's other sweeps, returning NMS-filtered detections
// identical to DetectCtx on the stack's frame. The stack is brought up
// to what the sweep reads first; tm (may be nil; written only on
// success) receives the sweep's Response/Windows stages, the stack's
// own stages are FrameStack.Timings.
func (d *PedestrianDetector) SweepCtx(ctx context.Context, st *FrameStack, workers int, tm *ScanTimings) ([]Detection, error) {
	return d.sweep().detect(ctx, st, workers, tm, d.NMSIoU, "pedestrian")
}

// CheckGeometry is DayDuskDetector.CheckGeometry for the pedestrian
// sweep.
func (d *PedestrianDetector) CheckGeometry() error { return d.sweep().check() }

func (d *PedestrianDetector) sweep() windowSweep {
	return windowSweep{
		Cfg: d.HOG, Model: d.Model,
		WinW: PedWindowW, WinH: PedWindowH,
		Stride: d.Stride, Scale: d.Scale, Thresh: d.DetectThresh,
		Kind: KindPedestrian, ScanConfig: d.ScanConfig,
	}
}

// TrainPedestrianSVM trains the pedestrian model from a crop dataset.
func TrainPedestrianSVM(ds *synth.Dataset, cfg hog.Config, opts svm.Options) (*svm.Model, error) {
	var p svm.Problem
	for _, g := range ds.Pos {
		crop := g
		if crop.W != PedWindowW || crop.H != PedWindowH {
			crop = img.ResizeGray(crop, PedWindowW, PedWindowH)
		}
		p.X = append(p.X, cfg.Extract(crop))
		p.Y = append(p.Y, 1)
	}
	for _, g := range ds.Neg {
		crop := g
		if crop.W != PedWindowW || crop.H != PedWindowH {
			crop = img.ResizeGray(crop, PedWindowW, PedWindowH)
		}
		p.X = append(p.X, cfg.Extract(crop))
		p.Y = append(p.Y, -1)
	}
	m, err := svm.Train(p, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: train pedestrian SVM: %w", err)
	}
	return m, nil
}
