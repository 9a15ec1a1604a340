// Package hog implements Dalal–Triggs histogram-of-oriented-gradients
// feature extraction, structured as the three hardware stages of the
// paper's pipeline (Fig. 2): gradient calculation, cell histogram
// generation, and block normalization. The stages are exposed
// separately so the SoC model can account for the intermediate
// memories ("HOG Memory", "Normalized HOG Memory") between them.
//
// lint:detpath
package hog

import (
	"fmt"
	"math"

	"advdet/internal/img"
)

// Config selects the descriptor geometry.
type Config struct {
	CellSize    int     // pixels per cell side (default 8)
	BlockCells  int     // cells per block side (default 2)
	BlockStride int     // block step in cells (default 1)
	Bins        int     // orientation bins over 0..180° (default 9)
	ClipL2Hys   float64 // clipping threshold for L2-Hys (default 0.2)
}

// DefaultConfig returns the standard 8-pixel-cell, 2x2-cell-block,
// 9-bin configuration used by the paper's day/dusk and pedestrian
// pipelines.
func DefaultConfig() Config {
	return Config{CellSize: 8, BlockCells: 2, BlockStride: 1, Bins: 9, ClipL2Hys: 0.2}
}

// validate panics on nonsensical configurations; Config values are
// build-time constants in this system, so misconfiguration is a
// programming error.
func (c Config) validate() {
	if c.CellSize <= 0 || c.BlockCells <= 0 || c.BlockStride <= 0 || c.Bins <= 0 {
		// lint:invariant Config values are build-time constants (see doc comment)
		panic(fmt.Sprintf("hog: invalid config %+v", c)) // lint:alloc cold panic path; fires only on an invariant violation
	}
}

// CellsFor returns the cell-grid dimensions for a w x h window.
func (c Config) CellsFor(w, h int) (cw, ch int) {
	return w / c.CellSize, h / c.CellSize
}

// BlocksFor returns the block-grid dimensions for a w x h window.
func (c Config) BlocksFor(w, h int) (bw, bh int) {
	cw, ch := c.CellsFor(w, h)
	if cw < c.BlockCells || ch < c.BlockCells {
		return 0, 0
	}
	return (cw-c.BlockCells)/c.BlockStride + 1, (ch-c.BlockCells)/c.BlockStride + 1
}

// DescriptorLen returns the final feature-vector length for a w x h
// window.
func (c Config) DescriptorLen(w, h int) int {
	bw, bh := c.BlocksFor(w, h)
	return bw * bh * c.BlockCells * c.BlockCells * c.Bins
}

// Gradients computes per-pixel gradient magnitude and orientation
// (unsigned, folded to [0, 180)) with centered [-1 0 1] kernels and
// replicate borders, exactly as the RTL gradient unit does.
func Gradients(g *img.Gray) (mag []float32, ang []float32) {
	w, h := g.W, g.H
	mag = make([]float32, w*h)
	ang = make([]float32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			mag[y*w+x], ang[y*w+x] = gradientAt(g, x, y)
		}
	}
	return mag, ang
}

// gradientAt is the gradient of pixel (x, y): magnitude and unsigned
// orientation in degrees, each rounded to float32 as the gradient
// planes hold them.
func gradientAt(g *img.Gray, x, y int) (mag, ang float32) {
	gx := float64(g.AtClamped(x+1, y)) - float64(g.AtClamped(x-1, y))
	gy := float64(g.AtClamped(x, y+1)) - float64(g.AtClamped(x, y-1))
	a := math.Atan2(gy, gx) * 180 / math.Pi // [-180, 180]
	if a < 0 {
		a += 180 // fold to unsigned orientation
	}
	if a >= 180 {
		a -= 180
	}
	return float32(math.Hypot(gx, gy)), float32(a)
}

// CellHistograms bins the gradients of a w x h window into per-cell
// orientation histograms with linear interpolation between the two
// neighboring orientation bins (the paper's "histogram generation"
// stage). The result is laid out cell-major: cell (cx, cy) occupies
// bins [ (cy*cw+cx)*Bins , ... ).
func (c Config) CellHistograms(g *img.Gray) []float64 {
	c.validate()
	cw, ch := c.CellsFor(g.W, g.H)
	hist := make([]float64, cw*ch*c.Bins)
	for cy := 0; cy < ch; cy++ {
		c.cellRowHistograms(g, cy, cw, hist)
	}
	return hist
}

// cellRowHistograms accumulates the histograms of cell row cy into
// hist, which the caller zeroes. Each cell row reads only its own
// CellSize pixel rows (and their one-pixel stencil border) and writes
// a disjoint slice of hist, and pixels are visited in y-major order,
// so a row-parallel accumulation is bitwise identical to
// CellHistograms.
func (c Config) cellRowHistograms(g *img.Gray, cy, cw int, hist []float64) {
	binWidth := 180.0 / float64(c.Bins)
	for y := cy * c.CellSize; y < (cy+1)*c.CellSize; y++ {
		for x := 0; x < cw*c.CellSize; x++ {
			mag, ang := gradientAt(g, x, y)
			m := float64(mag)
			if m == 0 {
				continue
			}
			a := float64(ang) / binWidth // bin coordinate
			b0 := int(a)
			frac := a - float64(b0)
			b0 %= c.Bins
			b1 := (b0 + 1) % c.Bins
			base := (cy*cw + x/c.CellSize) * c.Bins
			hist[base+b0] += float64(m * (1 - frac))
			hist[base+b1] += float64(m * frac)
		}
	}
}

// NormalizeBlocks applies L2-Hys normalization over sliding blocks of
// BlockCells x BlockCells cells and concatenates them into the final
// descriptor (the "block normalization" stage feeding the SVM).
func (c Config) NormalizeBlocks(hist []float64, w, h int) []float64 {
	c.validate()
	cw, _ := c.CellsFor(w, h)
	bw, bh := c.BlocksFor(w, h)
	blockLen := c.BlockCells * c.BlockCells * c.Bins
	out := make([]float64, 0, bw*bh*blockLen)
	block := make([]float64, blockLen)
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			k := 0
			for dy := 0; dy < c.BlockCells; dy++ {
				for dx := 0; dx < c.BlockCells; dx++ {
					cell := ((by*c.BlockStride+dy)*cw + bx*c.BlockStride + dx) * c.Bins
					copy(block[k:k+c.Bins], hist[cell:cell+c.Bins])
					k += c.Bins
				}
			}
			l2hys(block, c.ClipL2Hys)
			out = append(out, block...)
		}
	}
	return out
}

// l2hys normalizes v in place: L2 normalize, clip, renormalize.
func l2hys(v []float64, clip float64) {
	var ss float64
	for _, x := range v {
		ss += float64(x * x)
	}
	l2hysSS(v, clip, ss)
}

// l2hysSS is l2hys with the first-pass sum of squares precomputed by
// the caller. Callers must accumulate ss over v in ascending index
// order so the float64 additions associate exactly as l2hys's own
// loop would — that is what keeps fused producers (blockgrid's
// copy+accumulate) bitwise identical to copy-then-l2hys.
//
// The clip is min(x, clip), which compiles without a branch: whether
// a normalized value exceeds the clip is data-dependent and
// mispredicts often. For any clip other than NaN or -0 it is exactly
// "if x > clip { x = clip }".
func l2hysSS(v []float64, clip float64, ss float64) {
	const eps = 1e-10
	inv := 1 / math.Sqrt(ss+eps)
	// The second-pass sum of squares accumulates inside the scale+clip
	// loop: element i's final value is complete before its square is
	// added, and the additions run in the same ascending order as a
	// separate pass, so the fusion is bitwise neutral.
	ss = 0
	for i := range v {
		v[i] = min(v[i]*inv, clip)
		ss += float64(v[i] * v[i])
	}
	inv = 1 / math.Sqrt(ss+eps)
	for i := range v {
		v[i] *= inv
	}
}

// l2hysPair is l2hysSS over two equal-length vectors at once, each
// with its own precomputed first-pass sum of squares: the two
// vectors' scale, clip and second-pass sum-of-squares chains run
// interleaved in one loop, each in l2hysSS's ascending order with
// l2hysSS's operations, so both results are bitwise identical to two
// l2hysSS calls.
func l2hysPair(a, b []float64, clip, ssa, ssb float64) {
	const eps = 1e-10
	b = b[:len(a)]
	inva := 1 / math.Sqrt(ssa+eps)
	invb := 1 / math.Sqrt(ssb+eps)
	ssa, ssb = 0, 0
	for i := range a {
		x := min(a[i]*inva, clip)
		y := min(b[i]*invb, clip)
		a[i], b[i] = x, y
		ssa += float64(x * x)
		ssb += float64(y * y)
	}
	inva = 1 / math.Sqrt(ssa+eps)
	invb = 1 / math.Sqrt(ssb+eps)
	for i := range a {
		a[i] *= inva
		b[i] *= invb
	}
}

// Extract computes the full HOG descriptor of a window in one call:
// gradients -> cell histograms -> normalized blocks.
func (c Config) Extract(g *img.Gray) []float64 {
	return c.NormalizeBlocks(c.CellHistograms(g), g.W, g.H)
}
