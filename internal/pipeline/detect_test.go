package pipeline

import (
	"testing"

	"advdet/internal/img"
)

func TestNMSKeepsHighestScore(t *testing.T) {
	dets := []Detection{
		{Box: img.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Score: 1},
		{Box: img.Rect{X0: 1, Y0: 1, X1: 11, Y1: 11}, Score: 2},
		{Box: img.Rect{X0: 50, Y0: 50, X1: 60, Y1: 60}, Score: 0.5},
	}
	kept := NMS(dets, 0.3)
	if len(kept) != 2 {
		t.Fatalf("NMS kept %d, want 2", len(kept))
	}
	if kept[0].Score != 2 {
		t.Fatalf("first kept score %v, want the highest", kept[0].Score)
	}
}

func TestNMSDisjointBoxesAllKept(t *testing.T) {
	dets := []Detection{
		{Box: img.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Score: 1},
		{Box: img.Rect{X0: 20, Y0: 20, X1: 30, Y1: 30}, Score: 2},
		{Box: img.Rect{X0: 40, Y0: 40, X1: 50, Y1: 50}, Score: 3},
	}
	if got := NMS(dets, 0.3); len(got) != 3 {
		t.Fatalf("NMS dropped disjoint boxes: kept %d", len(got))
	}
}

func TestNMSEmpty(t *testing.T) {
	if got := NMS(nil, 0.5); len(got) != 0 {
		t.Fatal("NMS of nil not empty")
	}
}

func TestNMSDoesNotMutateInput(t *testing.T) {
	dets := []Detection{
		{Box: img.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Score: 1},
		{Box: img.Rect{X0: 1, Y0: 1, X1: 11, Y1: 11}, Score: 2},
	}
	NMS(dets, 0.3)
	if dets[0].Score != 1 {
		t.Fatal("NMS reordered the caller's slice")
	}
}

func TestKindString(t *testing.T) {
	if KindVehicle.String() != "vehicle" || KindPedestrian.String() != "pedestrian" {
		t.Fatal("Kind strings wrong")
	}
}

func TestBoxes(t *testing.T) {
	dets := []Detection{{Box: img.Rect{X0: 1, Y0: 2, X1: 3, Y1: 4}}}
	b := Boxes(dets)
	if len(b) != 1 || b[0] != dets[0].Box {
		t.Fatal("Boxes extraction wrong")
	}
}

func TestSlideWindowsCoversImage(t *testing.T) {
	g := img.NewGray(32, 32)
	g.Fill(100)
	count := 0
	slideWindows(g, 16, 16, 8, -1, func(l *img.Gray, w img.Rect) float64 {
		count++
		if l != g || w.W() != 16 || w.H() != 16 {
			t.Fatal("window size wrong")
		}
		return -10 // never accept
	}, KindVehicle)
	// (32-16)/8+1 = 3 positions per axis.
	if count != 9 {
		t.Fatalf("scored %d windows, want 9", count)
	}
}

func TestSlideWindowsTooSmallImage(t *testing.T) {
	g := img.NewGray(8, 8)
	if got := slideWindows(g, 16, 16, 8, 0, func(*img.Gray, img.Rect) float64 { return 1 }, KindVehicle); got != nil {
		t.Fatal("windows emitted for too-small image")
	}
}

func TestSlideWindowsThreshold(t *testing.T) {
	g := img.NewGray(32, 32)
	dets := slideWindows(g, 16, 16, 16, 0.5, func(*img.Gray, img.Rect) float64 {
		return 1.0
	}, KindPedestrian)
	if len(dets) != 4 {
		t.Fatalf("got %d detections, want 4", len(dets))
	}
	for _, d := range dets {
		if d.Kind != KindPedestrian || d.Score != 1 {
			t.Fatal("detection metadata wrong")
		}
	}
}

func TestScanPyramidMapsCoordinates(t *testing.T) {
	// Score high only at one window on the smallest level; the mapped
	// box must stay inside the original image.
	g := img.NewGray(64, 64)
	dets := scanPyramid(g, 16, 16, 8, 2.0, 0.5, func(*img.Gray, img.Rect) float64 { return 1 }, KindVehicle)
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	full := img.Rect{X0: 0, Y0: 0, X1: 64, Y1: 64}
	for _, d := range dets {
		if d.Box.Intersect(full).Area() != d.Box.Area() {
			t.Fatalf("mapped box %v escapes the frame", d.Box)
		}
	}
	// Level-1 windows (32x32 level) must map to ~32x32 boxes.
	var sawScaled bool
	for _, d := range dets {
		if d.Box.W() == 32 {
			sawScaled = true
		}
	}
	if !sawScaled {
		t.Fatal("no detection mapped from the downscaled level")
	}
}
