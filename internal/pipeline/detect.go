// Package pipeline implements the paper's three detection pipelines:
//
//   - day/dusk vehicle detection: HOG features + linear SVM (Fig. 2),
//   - dark vehicle detection: dual threshold -> downsample -> closing
//     -> sliding-window DBN -> spatial pair matching with an SVM
//     (Figs. 3 and 4),
//   - pedestrian detection: multi-scale HOG + SVM on the static
//     partition (after Hemmati et al., DAC'17).
//
// Each pipeline has a software-exact implementation here; the SoC
// model accounts its cycle cost separately.
//
// lint:detpath
package pipeline

import (
	"slices"

	"advdet/internal/img"
)

// Kind tags what a detection is.
type Kind int

const (
	KindVehicle Kind = iota
	KindPedestrian
	KindAnimal
)

func (k Kind) String() string {
	switch k {
	case KindPedestrian:
		return "pedestrian"
	case KindAnimal:
		return "animal"
	default:
		return "vehicle"
	}
}

// Detection is one detected object in frame coordinates.
type Detection struct {
	Box   img.Rect
	Score float64
	Kind  Kind
}

// Boxes extracts just the rectangles.
func Boxes(dets []Detection) []img.Rect {
	out := make([]img.Rect, len(dets))
	for i, d := range dets {
		out[i] = d.Box
	}
	return out
}

// NMS performs greedy non-maximum suppression: detections are visited
// in decreasing score order and any detection overlapping an already
// accepted one with IoU above the threshold is discarded.
func NMS(dets []Detection, iouThresh float64) []Detection {
	var ns nmsScratch
	return ns.run(dets, iouThresh)
}

// nmsScratch is NMS's reusable working set: the score-sorted copy and
// the survivors. Held by a scan or dark scratch, it leaves the
// returned slice as NMS's only allocation.
type nmsScratch struct {
	sorted, kept []Detection
}

// byScoreDesc orders detections by descending score: the comparator
// form of the less function a > b, so a stable sort orders them
// exactly as sort.SliceStable with that less function does.
func byScoreDesc(a, b Detection) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return 0
}

// run is NMS over ns's buffers. The survivors are returned in a fresh
// slice of exactly their length, nil when there are none.
//
// lint:hotpath
func (ns *nmsScratch) run(dets []Detection, iouThresh float64) []Detection {
	ns.sorted = append(ns.sorted[:0], dets...) // lint:alloc grows the reused buffer to its high-water mark
	slices.SortStableFunc(ns.sorted, byScoreDesc)
	ns.kept = ns.kept[:0]
	for _, d := range ns.sorted {
		ok := true
		for _, k := range ns.kept {
			if d.Box.IoU(k.Box) > iouThresh {
				ok = false
				break
			}
		}
		if ok {
			ns.kept = append(ns.kept, d) // lint:alloc grows the reused buffer to its high-water mark
		}
	}
	if len(ns.kept) == 0 {
		return nil
	}
	out := make([]Detection, len(ns.kept)) // lint:alloc the survivors handed to the caller
	copy(out, ns.kept)
	return out
}

// slideWindows scans a w x h window over g with the given stride,
// invoking score for each position with g and the window's rectangle;
// positions scoring above threshold are returned as detections in g's
// coordinates.
func slideWindows(g *img.Gray, winW, winH, stride int, threshold float64,
	score func(g *img.Gray, win img.Rect) float64, kind Kind) []Detection {
	var dets []Detection
	if g.W < winW || g.H < winH {
		return nil
	}
	for y := 0; y+winH <= g.H; y += stride {
		for x := 0; x+winW <= g.W; x += stride {
			win := img.Rect{X0: x, Y0: y, X1: x + winW, Y1: y + winH}
			if s := score(g, win); s > threshold {
				dets = append(dets, Detection{Box: win, Score: s, Kind: kind})
			}
		}
	}
	return dets
}

// scanPyramid runs slideWindows on every level of an image pyramid and
// maps detections back to level-0 coordinates: the serial reference
// every window sweep is tested against.
func scanPyramid(g *img.Gray, winW, winH, stride int, scale float64, threshold float64,
	score func(level *img.Gray, win img.Rect) float64, kind Kind) []Detection {
	levels := img.PyramidGray(g, scale, winW, winH)
	var all []Detection
	for _, level := range levels {
		fx := float64(g.W) / float64(level.W)
		fy := float64(g.H) / float64(level.H)
		for _, d := range slideWindows(level, winW, winH, stride, threshold, score, kind) {
			d.Box = img.Rect{
				X0: int(float64(d.Box.X0) * fx),
				Y0: int(float64(d.Box.Y0) * fy),
				X1: int(float64(d.Box.X1) * fx),
				Y1: int(float64(d.Box.Y1) * fy),
			}
			all = append(all, d)
		}
	}
	return all
}
