package pipeline

import (
	"context"
	"runtime"
	"testing"

	"advdet/internal/img"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// TestSharedStackMatchesIndependentScans is the shared front end's
// acceptance gate: a vehicle sweep and a pedestrian sweep over one
// frame stack must be byte-identical to two independent DetectCtx
// calls, over frame sizes (1080p, 360p, an odd size, and a portrait
// frame whose two pyramids differ), every scan lane (scanLanes), worker
// counts, and a cold or temporal stack. The frame
// sequence runs cold, warm-unchanged and partially dirty frames, then
// a day→dusk→day model select over fresh dirt: the stack's tiles stay
// warm across the select while no sweep may be served rows the other
// model — or its own model two frames back — produced.
func TestSharedStackMatchesIndependentScans(t *testing.T) {
	day := trainSmall(t, synth.DayDataset(760, 64, 64, 50, 50))
	dusk := trainSmall(t, synth.DuskDataset(761, 64, 64, 50, 50, 0))
	pedBase := trainPed(t, 762)
	// 1080p is the paper's frame size but costs a second per pass, so
	// it runs at one worker count; the smaller frames cover the full
	// cross product.
	sizes := []struct {
		name    string
		w, h    int
		workers []int
	}{
		{"1080p", 1920, 1080, []int{runtime.NumCPU()}},
		{"360p", 640, 360, []int{1, 2, runtime.NumCPU()}},
		{"odd", 333, 211, []int{1, 2, runtime.NumCPU()}},
		{"portrait", 200, 360, []int{1, 2, runtime.NumCPU()}},
	}
	if testing.Short() || raceEnabled {
		sizes = sizes[1:]
	}
	// The portrait frame is the case where the union pyramid matters:
	// the narrower pedestrian window fits levels the vehicle's does not.
	if v, p := img.PyramidSizes(200, 360, 1.25, VehicleWindow, VehicleWindow),
		img.PyramidSizes(200, 360, 1.25, PedWindowW, PedWindowH); len(p) <= len(v) {
		t.Fatalf("portrait pyramids agree (%d vs %d levels); the case no longer exercises the union", len(v), len(p))
	}
	ctx := context.Background()
	for _, size := range sizes {
		w, h := size.w, size.h
		f0 := img.RGBToGray(synth.RenderScene(synth.NewRNG(763),
			synth.SceneConfig{W: w, H: h, Cond: synth.Day, NumVehicles: 3}).Frame)
		f1 := f0.Clone()
		mutateRect(f1, img.Rect{X0: w / 4, Y0: h / 4, X1: w / 2, Y1: h / 2}, 764)
		f2 := f1.Clone()
		mutateRect(f2, img.Rect{X0: w / 2, Y0: h / 3, X1: 3 * w / 4, Y1: 2 * h / 3}, 765)
		f3 := f2.Clone()
		mutateRect(f3, img.Rect{X0: w / 8, Y0: h / 2, X1: w / 3, Y1: 7 * h / 8}, 766)
		seq := []struct {
			name  string
			frame *img.Gray
			model *svm.Model
			warm  bool // the temporal stack must reuse tiles on this frame
		}{
			{"cold", f0, day, false},
			{"warm", f0.Clone(), day, true},
			{"dirty", f1, day, true},
			{"select-dusk", f2, dusk, true},
			{"select-day", f3, day, true},
		}
		for _, lane := range scanLanes {
			name := size.name + "/" + lane.String()
			vehicle := func(m *svm.Model) *DayDuskDetector {
				d := NewDayDuskDetector(m)
				d.DetectThresh = -0.25 // loosen so every frame yields detections
				d.ScanConfig = lane.config()
				return d
			}
			ped := *pedBase
			ped.DetectThresh = -0.25
			ped.ScanConfig = lane.config()
			wantV := make([][]Detection, len(seq))
			wantP := make([][]Detection, len(seq))
			for i, f := range seq {
				var err error
				if wantV[i], err = vehicle(f.model).DetectCtx(ctx, f.frame, runtime.NumCPU()); err != nil {
					t.Fatal(err)
				}
				if wantP[i], err = ped.DetectCtx(ctx, f.frame, runtime.NumCPU()); err != nil {
					t.Fatal(err)
				}
			}
			if len(wantV[0]) == 0 || len(wantP[0]) == 0 {
				t.Fatalf("%s: reference found %d vehicles, %d pedestrians; scene too easy to miss a regression",
					name, len(wantV[0]), len(wantP[0]))
			}
			for _, workers := range size.workers {
				for _, temporal := range []bool{false, true} {
					st := NewFrameStack()
					var tc *TemporalCache
					if temporal {
						tc = NewTemporalCache()
						st = tc.Stack()
					}
					for i, f := range seq {
						label := name + "/" + f.name
						st.Begin(f.frame)
						gotV, err := vehicle(f.model).SweepCtx(ctx, st, workers, nil)
						if err != nil {
							t.Fatal(err)
						}
						gotP, err := ped.SweepCtx(ctx, st, workers, nil)
						if err != nil {
							t.Fatal(err)
						}
						requireSameDetections(t, label+"/vehicle", gotV, wantV[i])
						requireSameDetections(t, label+"/pedestrian", gotP, wantP[i])
						if tc != nil && f.warm && tc.FrameStats().Hits == 0 {
							t.Fatalf("%s: workers=%d: temporal stack reused no tile", label, workers)
						}
					}
				}
			}
		}
	}
}

// TestFrameStackBuildsOncePerFrame pins the "one front end per frame"
// contract: a second sweep over the same frame reads the stack the
// first one built (no resize, feature or block work of its own), and a
// sweep whose HOG front end differs from the frame's is refused.
func TestFrameStackBuildsOncePerFrame(t *testing.T) {
	veh := NewDayDuskDetector(trainSmall(t, synth.DayDataset(770, 64, 64, 40, 40)))
	ped := trainPed(t, 771)
	g := scanScene(772, 320, 200)
	ctx := context.Background()
	st := NewFrameStack()
	st.Begin(g)
	if _, err := veh.SweepCtx(ctx, st, 1, nil); err != nil {
		t.Fatal(err)
	}
	built := st.Timings()
	if built.Resize == 0 || built.Feature == 0 || built.Blocks == 0 {
		t.Fatalf("vehicle sweep built no front end: %+v", built)
	}
	if _, err := ped.SweepCtx(ctx, st, 1, nil); err != nil {
		t.Fatal(err)
	}
	if after := st.Timings(); after != built {
		t.Fatalf("pedestrian sweep rebuilt the landscape frame's stack: %+v, then %+v", built, after)
	}
	other := *ped
	other.Scale = 1.5
	if _, err := other.SweepCtx(ctx, st, 1, nil); err == nil {
		t.Fatal("sweep with a different pyramid scale was accepted over the frame's stack")
	}
	var fresh FrameStack
	if _, err := veh.SweepCtx(ctx, &fresh, 1, nil); err == nil {
		t.Fatal("sweep over a stack with no open frame succeeded")
	}
}

// TestBeginRGBBandsMatchSerial: the stack's gray conversion, in row
// bands on large frames and serial on small ones, gives img.RGBToGray's
// image exactly at every worker count, reusing its buffer across
// frames of different sizes.
func TestBeginRGBBandsMatchSerial(t *testing.T) {
	st := NewFrameStack()
	for _, sz := range [][2]int{{640, 360}, {160, 90}, {1920, 1080}, {333, 217}} {
		sc := synth.RenderScene(synth.NewRNG(780), synth.DefaultSceneConfig(sz[0], sz[1], synth.Dusk))
		want := img.RGBToGray(sc.Frame)
		for _, workers := range []int{1, 2, 3, 0} {
			g := st.BeginRGB(sc.Frame, workers)
			if g != st.Source() || g.W != want.W || g.H != want.H || string(g.Pix) != string(want.Pix) {
				t.Fatalf("%dx%d workers=%d: BeginRGB gray differs from RGBToGray", sz[0], sz[1], workers)
			}
		}
	}
}
