package hog

import (
	"math"
	"sync"
)

// The histogram lookup table: with [-1 0 1] kernels over uint8 pixels,
// a gradient is one of 511x511 integer (dx, dy) pairs, and everything
// the histogram stage derives from it — magnitude, folded orientation,
// the two bin indices and the two interpolated weights — is a pure
// function of that pair. Tabulating the final weights turns the
// per-pixel hypot/atan2/fold/interpolate chain into two indexed adds,
// the same strength reduction the RTL gradient unit performs with its
// ROM-based arctan. The table is built once per process for the
// default 9-bin geometry (the only one the shipped detectors use);
// other bin counts keep the scalar path.
//
// Every entry is computed with exactly the scalar path's expressions,
// including the float32 round-trips of the mag/ang planes, so a LUT
// accumulation is bitwise identical to the scalar one.
const lutBins = 9

// histEntry packs one gradient's weights and bin indices together, so
// a pixel's contribution is one 24-byte load. Shrinking the entries
// does not pay: 8-byte float32 (magnitude, angle) entries that derive
// the weights per pixel were bitwise equal but 1.6-1.9x slower on a
// serial 1080p level, because the histogram stage is bound by its
// dependent per-bin adds, not by these loads' cache misses. The vector
// body reads w0 and w1 as one 16-byte load and b0 as a uint16 at byte
// 16 (hist_amd64.s).
type histEntry struct {
	w0, w1 float64 // m * (1 - frac), m * frac
	b0, b1 uint16  // the two bin indices
}

var (
	histLUTOnce sync.Once
	histLUT     []histEntry
)

func histLUTIndex(dx, dy int) int { return (dy+255)*511 + (dx + 255) }

func ensureHistLUT() {
	histLUTOnce.Do(func() {
		histLUT = make([]histEntry, 511*511)
		binWidth := 180.0 / float64(lutBins)
		for dy := -255; dy <= 255; dy++ {
			for dx := -255; dx <= 255; dx++ {
				gx, gy := float64(dx), float64(dy)
				// Mirror gradientAt: mag/ang are rounded to float32.
				m := float64(float32(math.Hypot(gx, gy)))
				a := math.Atan2(gy, gx) * 180 / math.Pi
				if a < 0 {
					a += 180
				}
				if a >= 180 {
					a -= 180
				}
				// Mirror cellRowHistograms' interpolation.
				ab := float64(float32(a)) / binWidth
				b0 := int(ab)
				frac := ab - float64(b0)
				b0 %= lutBins
				b1 := (b0 + 1) % lutBins
				histLUT[histLUTIndex(dx, dy)] = histEntry{
					w0: m * (1 - frac),
					w1: m * frac,
					b0: uint16(b0),
					b1: uint16(b1),
				}
			}
		}
	})
}

// cellRowHistogramsLUT is cellRowHistograms with the gradient stage
// fused in: one pass over the cell row's pixels, each contributing its
// two tabulated weights. Pixels are visited in the same y-major,
// x-ascending order and every increment is the bitwise-identical
// float64, so the result matches the scalar stage exactly. Cell rows
// write disjoint hist slices, preserving the row-parallel determinism
// contract. It is the portable body, and the oracle of the vector one
// (cellRowHistogramsAsm).
//
// Cells go in adjacent pairs: one pass over a pixel row adds pixel x
// of the left cell and pixel x of the right cell in turn, so the two
// cells' read-modify-write chains through their bins overlap instead
// of queueing. Each cell still takes its own pixels in y-major,
// x-ascending order, so the pairing is bitwise neutral; an odd last
// cell takes the single-cell kernel.
//
// lint:hotpath
func (c Config) cellRowHistogramsLUT(pix []uint8, imgW, imgH, cy, cw int, hist []float64) {
	cs := c.CellSize
	for y := cy * cs; y < (cy+1)*cs; y++ {
		yu, yd := y-1, y+1
		if yu < 0 {
			yu = 0
		}
		if yd >= imgH {
			yd = imgH - 1
		}
		up := pix[yu*imgW : yu*imgW+imgW]
		down := pix[yd*imgW : yd*imgW+imgW]
		row := pix[y*imgW : y*imgW+imgW]
		for cx := 0; cx+1 < cw; cx += 2 {
			base := (cy*cw + cx) * lutBins
			left := hist[base : base+lutBins]
			right := hist[base+lutBins : base+2*lutBins]
			for x := cx * cs; x < (cx+1)*cs; x++ {
				xl := x - 1
				if xl < 0 {
					xl = 0
				}
				// The right cell's pixel x+cs has x+cs-1 >= 0 on its
				// left; only its right neighbour can leave the image.
				xs := x + cs
				xr := xs + 1
				if xr >= imgW {
					xr = imgW - 1
				}
				e := &histLUT[histLUTIndex(int(row[x+1])-int(row[xl]), int(down[x])-int(up[x]))]
				f := &histLUT[histLUTIndex(int(row[xr])-int(row[xs-1]), int(down[xs])-int(up[xs]))]
				left[e.b0] += e.w0
				right[f.b0] += f.w0
				left[e.b1] += e.w1
				right[f.b1] += f.w1
			}
		}
	}
	if cw%2 == 1 {
		c.cellHistogramLUT(pix, imgW, imgH, cw-1, cy, hist[(cy*cw+cw-1)*lutBins:][:lutBins])
	}
}

// cellHistogramLUT recomputes the single cell (cx, cy) through the
// fused LUT path. Its pixels are visited in the same y-major,
// x-ascending order a cell's contributions arrive in under
// cellRowHistogramsLUT, and every increment is the same tabulated
// float64, so the refreshed cell is bitwise identical to a full
// recompute — the property the temporal scan cache's byte-identity
// contract rests on.
//
// lint:hotpath
func (c Config) cellHistogramLUT(pix []uint8, imgW, imgH, cx, cy int, cell []float64) {
	cs := c.CellSize
	clear(cell)
	for y := cy * cs; y < (cy+1)*cs; y++ {
		yu, yd := y-1, y+1
		if yu < 0 {
			yu = 0
		}
		if yd >= imgH {
			yd = imgH - 1
		}
		up := pix[yu*imgW : yu*imgW+imgW]
		down := pix[yd*imgW : yd*imgW+imgW]
		row := pix[y*imgW : y*imgW+imgW]
		for x := cx * cs; x < (cx+1)*cs; x++ {
			xl, xr := x-1, x+1
			if xl < 0 {
				xl = 0
			}
			if xr >= imgW {
				xr = imgW - 1
			}
			e := &histLUT[histLUTIndex(int(row[xr])-int(row[xl]), int(down[x])-int(up[x]))]
			cell[e.b0] += e.w0
			cell[e.b1] += e.w1
		}
	}
}
