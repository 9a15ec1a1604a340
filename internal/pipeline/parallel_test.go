package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"advdet/internal/img"
	"advdet/internal/synth"
)

// scanScene renders a day scene with enough structure that the
// detectors fire, shared by the determinism tests.
func scanScene(seed uint64, w, h int) *img.Gray {
	sc := synth.RenderScene(synth.NewRNG(seed), synth.SceneConfig{W: w, H: h, Cond: synth.Day, NumVehicles: 2})
	return img.RGBToGray(sc.Frame)
}

func TestDayDuskDetectCtxDeterministicAcrossWorkers(t *testing.T) {
	det := NewDayDuskDetector(trainSmall(t, synth.DayDataset(90, 64, 64, 60, 60)))
	g := scanScene(91, 320, 180)
	ref, err := det.DetectCtx(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU(), 0} {
		got, err := det.DetectCtx(context.Background(), g, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: detections differ from serial:\n got %v\nwant %v", workers, got, ref)
		}
	}
	// The compat wrapper is the serial engine.
	if got := det.Detect(g); !reflect.DeepEqual(got, ref) {
		t.Fatal("Detect differs from DetectCtx(workers=1)")
	}
}

func TestPedestrianDetectCtxDeterministicAcrossWorkers(t *testing.T) {
	det := trainPed(t, 92)
	g := scanScene(93, 256, 160)
	ref, err := det.DetectCtx(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := det.DetectCtx(context.Background(), g, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("parallel pedestrian scan differs from serial:\n got %v\nwant %v", got, ref)
	}
}

func TestDarkScanLightsCtxDeterministicAcrossWorkers(t *testing.T) {
	det := quickDark(t, 1)
	sc := synth.RenderScene(synth.NewRNG(95),
		synth.SceneConfig{W: 320, H: 180, Cond: synth.Dark, NumVehicles: 2, RoadLights: 2, OncomingHeadlights: 1})
	b := det.Preprocess(sc.Frame)
	refLights, refStats, err := det.ScanLightsStatsCtx(context.Background(), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU()} {
		lights, stats, err := det.ScanLightsStatsCtx(context.Background(), b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lights, refLights) {
			t.Fatalf("workers=%d: lights differ from serial", workers)
		}
		if stats != refStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, refStats)
		}
	}
	refDets, err := det.DetectCtx(context.Background(), sc.Frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotDets, err := det.DetectCtx(context.Background(), sc.Frame, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDets, refDets) {
		t.Fatal("parallel dark detect differs from serial")
	}
}

func TestDetectCtxPreCancelled(t *testing.T) {
	det := NewDayDuskDetector(trainSmall(t, synth.DayDataset(96, 64, 64, 40, 40)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.DetectCtx(ctx, scanScene(97, 256, 144), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestScanGeometryErrors: a sweep whose windows cannot be scored from
// the level block grid is refused with ErrScanGeometry, from DetectCtx
// and SweepCtx alike and before any frame from CheckGeometry — a
// stride off the 8-px cell grid, and a model trained for another
// window. Such scans used to fall back to a slow per-window path.
func TestScanGeometryErrors(t *testing.T) {
	model := trainSmall(t, synth.DayDataset(98, 64, 64, 40, 40))
	g := scanScene(99, 200, 120)
	ctx := context.Background()
	unaligned := NewDayDuskDetector(model)
	unaligned.Stride = 12 // not a multiple of the 8-pixel cell
	misfit := trainPed(t, 97)
	misfit.Model = model // a 64x64-window model on the 32x64 pedestrian window
	for _, c := range []struct {
		name   string
		check  func() error
		detect func() error
		sweep  func(*FrameStack) error
	}{
		{"stride-12", unaligned.CheckGeometry,
			func() error { _, err := unaligned.DetectCtx(ctx, g, 2); return err },
			func(st *FrameStack) error { _, err := unaligned.SweepCtx(ctx, st, 2, nil); return err }},
		{"model-length", misfit.CheckGeometry,
			func() error { _, err := misfit.DetectCtx(ctx, g, 2); return err },
			func(st *FrameStack) error { _, err := misfit.SweepCtx(ctx, st, 2, nil); return err }},
	} {
		st := NewFrameStack()
		st.Begin(g)
		for what, err := range map[string]error{"CheckGeometry": c.check(), "DetectCtx": c.detect(), "SweepCtx": c.sweep(st)} {
			if !errors.Is(err, ErrScanGeometry) {
				t.Fatalf("%s: %s error %v, want ErrScanGeometry", c.name, what, err)
			}
		}
	}
	if err := NewDayDuskDetector(model).CheckGeometry(); err != nil {
		t.Fatalf("shipped vehicle geometry refused: %v", err)
	}
}
