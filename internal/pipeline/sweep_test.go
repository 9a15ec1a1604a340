package pipeline

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// requireSameDetections asserts got is byte-identical to want:
// same boxes, kinds, order, and bitwise-equal scores.
func requireSameDetections(t *testing.T, label string, got, want []Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: detection %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// sweepDets runs s over st's open frame in the stack's scan scratch and
// returns a copy of the sweep's detections, before NMS.
func sweepDets(ctx context.Context, s windowSweep, st *FrameStack, workers int) ([]Detection, error) {
	dets, err := s.run(ctx, st, &st.scan, workers, nil)
	return slices.Clone(dets), err
}

// TestEarlyRejectMatchesFullMargin is the threshold's exactness gate
// at the sweep level: for every scan kind, datapath and worker count,
// a sweep at its threshold must return exactly the windows the same
// sweep scores above it at threshold -Inf — boxes, kinds, order and
// bitwise scores. At -Inf no bound can reject a window, so every
// window's score is its full margin; the quantized lane's integer
// early exit must therefore reject only windows below the threshold.
func TestEarlyRejectMatchesFullMargin(t *testing.T) {
	ctx := context.Background()
	for _, tc := range scanCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, quant := range []bool{false, true} {
				s := tc.sweep
				s.Quantized = quant
				full := s
				full.Thresh = math.Inf(-1)
				st := NewFrameStack()
				st.Begin(tc.frame)
				all, err := sweepDets(ctx, full, st, 1)
				if err != nil {
					t.Fatal(err)
				}
				var want []Detection
				for _, d := range all {
					if d.Score > s.Thresh {
						want = append(want, d)
					}
				}
				if len(want) == 0 {
					t.Fatalf("%s quantized=%v: full-margin sweep found nothing; scene too easy to miss a regression", tc.name, quant)
				}
				for _, workers := range []int{1, 2, runtime.NumCPU()} {
					st.Begin(tc.frame)
					got, err := sweepDets(ctx, s, st, workers)
					if err != nil {
						t.Fatal(err)
					}
					requireSameDetections(t, fmt.Sprintf("%s quantized=%v workers=%d", tc.name, quant, workers), got, want)
				}
			}
		})
	}
}

// TestQuantizedBoundedDivergence is the quantized path's acceptance
// gate over seed scenes rendered in all three lighting conditions:
// the detections must be byte-identical to the float scan — boxes,
// kinds, order and bitwise scores. The guard band makes the box set
// structural, and every window the integer datapath does not reject
// re-scores in float, so the scores are the float lane's too.
func TestQuantizedBoundedDivergence(t *testing.T) {
	dayModel := trainSmall(t, synth.DayDataset(700, 64, 64, 50, 50))
	duskModel := trainSmall(t, synth.DuskDataset(701, 64, 64, 50, 50, 0))
	scenes := []struct {
		name  string
		model *svm.Model
		g     *img.Gray
	}{
		{"day", dayModel, img.RGBToGray(synth.RenderScene(synth.NewRNG(810),
			synth.SceneConfig{W: 320, H: 200, Cond: synth.Day, NumVehicles: 3}).Frame)},
		{"dusk", duskModel, img.RGBToGray(synth.RenderScene(synth.NewRNG(811),
			synth.SceneConfig{W: 320, H: 200, Cond: synth.Dusk, NumVehicles: 3}).Frame)},
		{"dark", duskModel, img.RGBToGray(synth.RenderScene(synth.NewRNG(812),
			synth.SceneConfig{W: 320, H: 200, Cond: synth.Dark, NumVehicles: 2, RoadLights: 2}).Frame)},
	}
	ctx := context.Background()
	for _, sc := range scenes {
		t.Run(sc.name, func(t *testing.T) {
			det := NewDayDuskDetector(sc.model)
			det.DetectThresh = -0.25 // loosen so every scene yields detections
			ref, err := det.DetectCtx(ctx, sc.g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref) == 0 && sc.name != "dark" {
				t.Fatalf("%s: float scan found nothing; scene too easy to miss a regression", sc.name)
			}
			qdet := *det
			qdet.Quantized = true
			var tm ScanTimings
			got, err := qdet.DetectTimedCtx(ctx, sc.g, 1, &tm)
			if err != nil {
				t.Fatal(err)
			}
			if !tm.Quantized {
				t.Fatal("quantized scan fell back to the float lane")
			}
			requireSameDetections(t, "quantized vs float", got, ref)
		})
	}
}

// TestSetLevelsInvalidatesShrunkEntries is the fails-pre-fix
// regression for the per-level arena seam: a pyramid that shrinks
// between borrows must not leave levels beyond the new count holding
// the previous scan's lattices — state nothing re-derives, which any
// later read would interpret as current.
func TestSetLevelsInvalidatesShrunkEntries(t *testing.T) {
	s := new(scanScratch)
	s.setLevels(5)
	lat := svm.Lattice{NAX: 7, NAY: 7, NBX: 9, NBY: 9, StepX: 1, StepY: 1, BlockStride: 1}
	for i := 0; i < 5; i++ {
		s.lats[i] = lat
	}
	s.setLevels(2)
	for i := 2; i < 5; i++ {
		if s.lats[i] != (svm.Lattice{}) {
			t.Fatalf("level %d kept stale lattice %+v after shrink", i, s.lats[i])
		}
	}
	for i := 0; i < 2; i++ {
		if s.lats[i] != lat {
			t.Fatalf("level %d lost live state on shrink", i)
		}
	}
}

// TestShrinkThenRescan drives the shrink seams end to end: a large
// scan grows the pooled arenas, then a smaller frame must still score
// the oracle's boxes on both datapaths — any stale lattice surviving
// the shrink shows up here as a phantom or missing detection.
func TestShrinkThenRescan(t *testing.T) {
	det := NewDayDuskDetector(trainSmall(t, synth.DayDataset(820, 64, 64, 40, 40)))
	det.DetectThresh = -0.25
	big := scanScene(821, 512, 320)
	small := scanScene(822, 160, 112)
	ctx := context.Background()
	want := NMS(hogOracle(det.sweep(), small), det.NMSIoU)
	for _, lane := range scanLanes {
		t.Run(lane.String(), func(t *testing.T) {
			d := *det
			d.ScanConfig = lane.config()
			if _, err := d.DetectCtx(ctx, big, 1); err != nil {
				t.Fatal(err)
			}
			got, err := d.DetectCtx(ctx, small, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shrink rescan: %d detections, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Box != want[i].Box || got[i].Kind != want[i].Kind {
					t.Fatalf("shrink rescan: detection %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}
