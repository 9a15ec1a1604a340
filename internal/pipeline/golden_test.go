package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"advdet/internal/img"
	"advdet/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_detections.txt from this build's detections")

// goldenFile pins the detections of TestGoldenDetections, one line per
// case: the case name, its detection count and the SHA-256 of its
// detections (boxes, kinds and score bits, in output order).
const goldenFile = "testdata/golden_detections.txt"

// TestGoldenDetections pins the absolute output of the HOG detectors:
// the vehicle, pedestrian and animal sweeps over 1080p day, dusk and
// dark scenes and three odd sizes, at workers 1 and 2, on both
// datapaths, standalone (DetectCtx) and over one shared stack, cold and
// over a temporal stack driven cold → unchanged → partially dirty →
// second dirty. Every equivalence test elsewhere compares two paths of
// one build; this one catches a change that moves all of them alike,
// so a kernel or front-end rewrite that passes it is byte-identical to
// the build that wrote the file. The AVX2 and portable (-tags purego)
// bodies are held to the same file.
//
// Run with -update to rewrite the file; a change that does so must say
// which output moved and why.
func TestGoldenDetections(t *testing.T) {
	if raceEnabled {
		t.Skip("byte identity is not a race property; the 1080p scenes are too slow under -race")
	}
	// Go fuses no a*b+c into an FMA on amd64 or 386, and 386 computes
	// float64 in SSE2, so both round every operation as the file does.
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden detections are pinned on amd64 and 386; %s may fuse multiply-adds", runtime.GOARCH)
	}
	vehicle := NewDayDuskDetector(trainSmall(t, synth.DayDataset(780, 64, 64, 50, 50)))
	ped := trainPed(t, 781)
	animal := trainAnimal(t, 782)
	// Loosened thresholds so every scene yields detections to pin.
	vehicle.DetectThresh, ped.DetectThresh, animal.DetectThresh = -0.25, -0.25, -0.25

	scenes := []struct {
		name string
		w, h int
		cond synth.Condition
	}{
		{"1080p-day", 1920, 1080, synth.Day},
		{"1080p-dusk", 1920, 1080, synth.Dusk},
		{"1080p-dark", 1920, 1080, synth.Dark},
		{"640x360", 640, 360, synth.Day},
		{"1000x701", 1000, 701, synth.Dusk},
		{"2600x300", 2600, 300, synth.Day},
	}
	ctx := context.Background()
	var out bytes.Buffer
	record := func(name string, dets []Detection, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "%s %d %x\n", name, len(dets), hashDetections(dets))
	}
	for si, sc := range scenes {
		rgb := synth.RenderScene(synth.NewRNG(790+uint64(si)),
			synth.DefaultSceneConfig(sc.w, sc.h, sc.cond)).Frame
		f0 := img.RGBToGray(rgb)
		w, h := sc.w, sc.h
		f1 := f0.Clone()
		mutateRect(f1, img.Rect{X0: w / 4, Y0: h / 4, X1: w / 2, Y1: h / 2}, 800+uint64(si))
		f2 := f1.Clone()
		mutateRect(f2, img.Rect{X0: w / 2, Y0: h / 3, X1: 3 * w / 4, Y1: 2 * h / 3}, 810+uint64(si))
		seq := []struct {
			name  string
			frame *img.Gray
		}{{"cold", f0}, {"unchanged", f0.Clone()}, {"dirty", f1}, {"dirty2", f2}}

		for _, workers := range []int{1, 2} {
			for _, lane := range scanLanes {
				v, p, a := *vehicle, *ped, *animal
				v.ScanConfig, p.ScanConfig, a.ScanConfig = lane.config(), lane.config(), lane.config()
				prefix := fmt.Sprintf("%s/w%d/%s", sc.name, workers, lane)
				sweeps := func(st *FrameStack, name string) {
					dets, err := v.SweepCtx(ctx, st, workers, nil)
					record(name+"/vehicle", dets, err)
					dets, err = p.SweepCtx(ctx, st, workers, nil)
					record(name+"/pedestrian", dets, err)
					dets, err = a.sweep().detect(ctx, st, workers, nil, a.NMSIoU, "animal")
					record(name+"/animal", dets, err)
				}

				dets, err := v.DetectCtx(ctx, f0, workers)
				record(prefix+"/standalone/vehicle", dets, err)
				dets, err = p.DetectCtx(ctx, f0, workers)
				record(prefix+"/standalone/pedestrian", dets, err)
				dets, err = a.DetectCtx(ctx, f0, workers)
				record(prefix+"/standalone/animal", dets, err)

				st := NewFrameStack()
				st.BeginRGB(rgb, workers)
				sweeps(st, prefix+"/shared")

				tc := NewTemporalCache()
				for _, f := range seq {
					tc.Stack().Begin(f.frame)
					sweeps(tc.Stack(), prefix+"/temporal-"+f.name)
				}
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenFile, strings.Count(out.String(), "\n"))
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden cases, file holds %d", len(gotLines)-1, len(wantLines)-1)
	}
	bad := 0
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			if bad < 10 {
				t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden cases differ", bad, len(wantLines)-1)
	}
	nonEmpty := 0
	for _, l := range gotLines {
		if f := strings.Fields(l); len(f) == 3 && f[1] != "0" {
			nonEmpty++
		}
	}
	if nonEmpty < len(gotLines)/2 {
		t.Fatalf("only %d of %d golden cases detect anything; the scenes are too easy to miss a regression", nonEmpty, len(gotLines)-1)
	}
}

// hashDetections is the SHA-256 of dets in order: each detection's box
// corners, kind and score bits, little-endian.
func hashDetections(dets []Detection) [sha256.Size]byte {
	h := sha256.New()
	var buf [6 * 8]byte
	for _, d := range dets {
		for i, v := range []int{d.Box.X0, d.Box.Y0, d.Box.X1, d.Box.Y1, int(d.Kind)} {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(v)))
		}
		binary.LittleEndian.PutUint64(buf[40:], math.Float64bits(d.Score))
		h.Write(buf[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
