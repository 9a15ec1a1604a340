// Package haar implements Haar-like features over integral images and
// an AdaBoost classifier of decision stumps — the VeDANt-style
// nighttime detection baseline of Satzoda & Trivedi (paper reference
// [11]), which trains "AdaBoost classifiers with Haar-like features
// using gray-level input images". The benchmark harness compares it
// against the paper's DBN dark pipeline.
package haar

import "advdet/internal/img"

// Integral is a summed-area table: Integral[y][x] holds the sum of all
// pixels strictly above and left of (x, y), so rectangle sums are four
// lookups.
type Integral struct {
	W, H int
	sum  []int64 // (W+1) x (H+1)
}

// NewIntegral builds the summed-area table of g.
func NewIntegral(g *img.Gray) *Integral {
	w, h := g.W, g.H
	it := &Integral{W: w, H: h, sum: make([]int64, (w+1)*(h+1))}
	stride := w + 1
	for y := 0; y < h; y++ {
		var rowSum int64
		for x := 0; x < w; x++ {
			rowSum += int64(g.Pix[y*w+x])
			it.sum[(y+1)*stride+x+1] = it.sum[y*stride+x+1] + rowSum
		}
	}
	return it
}

// Sum returns the pixel sum over the half-open rectangle
// [x0,x1) x [y0,y1). Coordinates are clamped to the image.
func (it *Integral) Sum(x0, y0, x1, y1 int) int64 {
	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	x0, x1 = clamp(x0, it.W), clamp(x1, it.W)
	y0, y1 = clamp(y0, it.H), clamp(y1, it.H)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	s := it.W + 1
	return it.sum[y1*s+x1] - it.sum[y0*s+x1] - it.sum[y1*s+x0] + it.sum[y0*s+x0]
}
