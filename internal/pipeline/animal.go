package pipeline

import (
	"context"
	"fmt"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// Animal window geometry: quadrupeds in side profile are wider than
// tall.
const (
	AnimalWindowW = 64
	AnimalWindowH = 32
)

// AnimalDetector is the optional animal-detection feature the paper's
// introduction motivates: another HOG+SVM pipeline that can occupy
// the reconfigurable partition on countryside roads and be swapped
// out in urban driving. Structurally identical hardware to Fig. 2
// with its own window geometry and model.
type AnimalDetector struct {
	HOG          hog.Config
	Model        *svm.Model
	Stride       int
	Scale        float64
	Thresh       float64
	DetectThresh float64
	NMSIoU       float64
	ScanConfig
}

// NewAnimalDetector wraps a trained model with default scan settings.
func NewAnimalDetector(m *svm.Model) *AnimalDetector {
	return &AnimalDetector{
		HOG:          hog.DefaultConfig(),
		Model:        m,
		Stride:       8,
		Scale:        1.25,
		Thresh:       0,
		DetectThresh: 0.5,
		NMSIoU:       0.3,
	}
}

// ClassifyCrop scores a single crop.
func (d *AnimalDetector) ClassifyCrop(g *img.Gray) bool {
	if g.W != AnimalWindowW || g.H != AnimalWindowH {
		g = img.ResizeGray(g, AnimalWindowW, AnimalWindowH)
	}
	return d.Model.Margin(d.HOG.Extract(g)) > d.Thresh
}

// Detect scans the frame at multiple scales for animals (tagged
// KindAnimal) on the calling goroutine; see DetectCtx for the
// parallel engine.
func (d *AnimalDetector) Detect(g *img.Gray) []Detection {
	dets, _ := d.DetectCtx(context.Background(), g, 1) // lint:ctxroot serial wrapper; background ctx cannot fail
	return dets
}

// DetectCtx is Detect with cancellation and a bounded worker pool
// sharing one per-level feature cache (workers <= 0 means NumCPU).
// Output is identical for every worker count. Errors are
// DayDuskDetector.DetectCtx's.
func (d *AnimalDetector) DetectCtx(ctx context.Context, g *img.Gray, workers int) ([]Detection, error) {
	return d.DetectTimedCtx(ctx, g, workers, nil)
}

// DetectTimedCtx is DetectCtx with per-stage wall-clock attribution;
// tm may be nil and is written only on success. It builds a one-sweep
// frame stack over g and sweeps it.
func (d *AnimalDetector) DetectTimedCtx(ctx context.Context, g *img.Gray, workers int, tm *ScanTimings) ([]Detection, error) {
	return detectOnce(ctx, d.Temporal, g, workers, tm, d.sweep(), d.NMSIoU, "animal")
}

func (d *AnimalDetector) sweep() windowSweep {
	return windowSweep{
		Cfg: d.HOG, Model: d.Model,
		WinW: AnimalWindowW, WinH: AnimalWindowH,
		Stride: d.Stride, Scale: d.Scale, Thresh: d.DetectThresh,
		Kind: KindAnimal, ScanConfig: d.ScanConfig,
	}
}

// TrainAnimalSVM trains the animal model from a crop dataset.
func TrainAnimalSVM(ds *synth.Dataset, cfg hog.Config, opts svm.Options) (*svm.Model, error) {
	m, err := TrainCropSVM(ds, cfg, AnimalWindowW, AnimalWindowH, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: train animal SVM: %w", err)
	}
	return m, nil
}
