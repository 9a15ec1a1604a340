package hog

import (
	"context"
	"math"
	"testing"

	"advdet/internal/img"
)

// pairSizes are image sizes for the paired-kernel tests at the default
// 8-px cell: one and two cells wide, odd and even cell and block
// counts, and widths and heights that are not a multiple of the cell.
var pairSizes = [][2]int{
	{8, 8}, {15, 9}, {16, 16}, {17, 16}, {24, 16}, {31, 17},
	{32, 24}, {40, 21}, {45, 40}, {64, 33}, {77, 19},
}

// sameBits reports whether a and b are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPairedHistogramMatchesSingleCell pins the two-cells-per-pass
// histogram row kernel to the single-cell kernel the temporal refresh
// uses: every cell of a full ComputeCtx pass must equal
// cellHistogramLUT of that cell, bit for bit.
func TestPairedHistogramMatchesSingleCell(t *testing.T) {
	c := DefaultConfig()
	ensureHistLUT()
	for _, sz := range pairSizes {
		g := noisy(sz[0], sz[1])
		fm, err := c.NewFeatureMapCtx(context.Background(), g, 2)
		if err != nil {
			t.Fatal(err)
		}
		cell := make([]float64, lutBins)
		for cy := 0; cy < fm.ch; cy++ {
			for cx := 0; cx < fm.cw; cx++ {
				c.cellHistogramLUT(g.Pix, g.W, g.H, cx, cy, cell)
				got := fm.hist[(cy*fm.cw+cx)*lutBins:][:lutBins]
				if !sameBits(got, cell) {
					t.Fatalf("%dx%d (%dx%d cells): cell (%d,%d) = %v, single-cell kernel %v",
						g.W, g.H, fm.cw, fm.ch, cx, cy, got, cell)
				}
			}
		}
	}
}

// TestPairedNormalizeMatchesSingleBlock pins the block-pair normalizer
// to normalizeBlock: every block of a full ComputeCtx pass, paired or
// the odd one out, must equal normalizeBlock of that block.
func TestPairedNormalizeMatchesSingleBlock(t *testing.T) {
	for _, sz := range pairSizes {
		fm := DefaultConfig().NewFeatureMap(noisy(sz[0], sz[1]))
		bg, err := NewBlockGridCtx(context.Background(), fm, 2)
		if err != nil {
			t.Fatal(err)
		}
		one := &BlockGrid{Cfg: bg.Cfg, nbx: bg.nbx, nby: bg.nby, blockLen: bg.blockLen,
			norm: make([]float64, len(bg.norm))}
		for cy := 0; cy < bg.nby; cy++ {
			for cx := 0; cx < bg.nbx; cx++ {
				one.normalizeBlock(fm, cx, cy)
				if !sameBits(bg.Block(cx, cy), one.Block(cx, cy)) {
					t.Fatalf("%dx%d (%dx%d blocks): block (%d,%d) differs from normalizeBlock",
						sz[0], sz[1], bg.nbx, bg.nby, cx, cy)
				}
			}
		}
	}
}

// TestPairedKernelsDirtyRefresh runs a full pass, changes a patch of
// pixels, and refreshes the cells and blocks around it through
// ComputeDirtyCtx (the single-cell and single-block kernels): the
// refreshed map and grid must equal a full paired pass over the
// changed image, bit for bit.
func TestPairedKernelsDirtyRefresh(t *testing.T) {
	c := DefaultConfig()
	ctx := context.Background()
	for _, sz := range pairSizes {
		for _, workers := range []int{1, 3} {
			g := noisy(sz[0], sz[1])
			fm, err := c.NewFeatureMapCtx(ctx, g, workers)
			if err != nil {
				t.Fatal(err)
			}
			bg, err := NewBlockGridCtx(ctx, fm, workers)
			if err != nil {
				t.Fatal(err)
			}
			// Repaint a patch in the middle, then mark every cell
			// whose stencil (one pixel beyond the cell) reaches it.
			changed := img.NewGray(g.W, g.H)
			copy(changed.Pix, g.Pix)
			x0, y0, x1, y1 := g.W/3, g.H/3, g.W/3+5, g.H/3+4
			for y := y0; y < min(y1, g.H); y++ {
				for x := x0; x < min(x1, g.W); x++ {
					changed.Pix[y*g.W+x] ^= 0x5a
				}
			}
			cs := c.CellSize
			cells := make([]bool, fm.cw*fm.ch)
			for cy := 0; cy < fm.ch; cy++ {
				for cx := 0; cx < fm.cw; cx++ {
					cells[cy*fm.cw+cx] = cx*cs-1 < x1 && (cx+1)*cs+1 > x0 &&
						cy*cs-1 < y1 && (cy+1)*cs+1 > y0
				}
			}
			blocks := make([]bool, bg.nbx*bg.nby)
			DilateCellsToBlocks(c, cells, fm.cw, bg.nbx, bg.nby, blocks)
			if err := fm.ComputeDirtyCtx(ctx, c, changed, workers, cells); err != nil {
				t.Fatal(err)
			}
			if err := bg.ComputeDirtyCtx(ctx, fm, workers, blocks); err != nil {
				t.Fatal(err)
			}
			wantFM, err := c.NewFeatureMapCtx(ctx, changed, workers)
			if err != nil {
				t.Fatal(err)
			}
			wantBG, err := NewBlockGridCtx(ctx, wantFM, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(fm.hist, wantFM.hist) {
				t.Fatalf("%dx%d workers=%d: refreshed feature map differs from a full pass", g.W, g.H, workers)
			}
			if !sameBits(bg.Data(), wantBG.Data()) {
				t.Fatalf("%dx%d workers=%d: refreshed block grid differs from a full pass", g.W, g.H, workers)
			}
		}
	}
}
