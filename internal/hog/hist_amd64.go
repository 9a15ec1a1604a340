//go:build !purego

package hog

import (
	"unsafe"

	"advdet/internal/cpu"
)

// histChunk is how many pixels of a cell row one round of the vector
// histogram body tabulates per pixel row: eight groups of four 8-px
// cells, so the 8-row offset block (8 KB) stays in L1 between the
// index and accumulate passes. hist_amd64.s reads it as const_histChunk.
const histChunk = 256

// histIndexAVX2 stores offs[i] = the byte offset in histLUT of pixel
// i's gradient entry, 24*histLUTIndex(left[i+2]-left[i], down[i]-up[i]),
// for i in [0, n), n >= 8 (hist_amd64.s). It reads exactly bytes
// [0, n+2) of left and [0, n) of up and down: the caller checks every
// bound.
//
//go:noescape
func histIndexAVX2(offs *int32, left, up, down *uint8, n int)

// cellGroupsAVX2 stores the 9-bin histograms of groups groups of four
// adjacent 8x8 cells at hist (36 float64s per group), reading pixel
// (r, x) of the group's cells from LUT byte offset offs[r*histChunk+x]
// and spreading each pixel's weights over the bins by perm
// (hist_amd64.s). The caller checks every bound.
//
//go:noescape
func cellGroupsAVX2(hist *float64, lut *histEntry, perm *[4][8]int32, offs *int32, groups int)

// histPerm[b0][j] is the VPERMPS index vector that spreads a register
// holding (w0, w1, +0, +0) over bins 4j..4j+3 of a pixel whose first
// bin is b0: the two dwords of w0 into bin b0, those of w1 into bin
// (b0+1)%9, and dword 4, a zero, into every other bin, including the
// three unused slots past bin 8. The fourth vector pads each b0's row
// to 128 bytes, so its offset is b0<<7.
var histPerm = func() (p [lutBins][4][8]int32) {
	for b0 := range p {
		for j := 0; j < 3; j++ {
			for d := range p[b0][j] {
				bin, half := 4*j+d/2, int32(d%2)
				switch bin {
				case b0:
					p[b0][j][d] = half
				case (b0 + 1) % lutBins:
					p[b0][j][d] = 2 + half
				default:
					p[b0][j][d] = 4
				}
			}
		}
	}
	return p
}()

// cellRowHistogramsAsm fills the histograms of cell row cy and
// reports true when the CPU has AVX2 and the geometry is 8-px cells,
// at least four to a row; otherwise it leaves the row to
// cellRowHistogramsLUT and reports false. The row's groups of four
// cells go through the vector body, a chunk at a time. Each chunk's
// 8-row block of LUT offsets is tabulated first: interior pixels by
// histIndexAVX2, and the two pixels whose stencil clamps at the
// image's side, x = 0 and x = imgW-1, by histLUTIndex, as
// cellRowHistogramsLUT computes them. Every cell's bins then take the
// same increments in the same order as the Go body, with +0 for the
// bins a pixel does not touch, so the result is bitwise identical
// (hist_amd64.s). The cells past the last group of four take
// cellHistogramLUT.
//
// lint:hotpath
func (c Config) cellRowHistogramsAsm(pix []uint8, imgW, imgH, cy, cw int, hist []float64) bool {
	groups := cw / 4
	if !cpu.AVX2 || c.CellSize != 8 || groups == 0 {
		return false
	}
	var offs [8 * histChunk]int32
	for x0 := 0; x0 < groups*32; x0 += histChunk {
		x1 := min(groups*32, x0+histChunk)
		lo, hi := max(x0, 1), min(x1, imgW-1)
		for r := 0; r < 8; r++ {
			y := cy*8 + r
			up := pix[max(y-1, 0)*imgW:][:imgW]
			down := pix[min(y+1, imgH-1)*imgW:][:imgW]
			row := pix[y*imgW:][:imgW]
			o := offs[r*histChunk:][:x1-x0]
			left := row[lo-1 : hi+1]
			histIndexAVX2(&o[lo-x0], &left[0], &up[lo:hi][0], &down[lo:hi][0], hi-lo)
			if x0 == 0 {
				o[0] = histOffset(int(row[1])-int(row[0]), int(down[0])-int(up[0]))
			}
			if hi < x1 {
				o[hi-x0] = histOffset(int(row[hi])-int(row[hi-1]), int(down[hi])-int(up[hi]))
			}
		}
		h := hist[(cy*cw+x0/8)*lutBins : (cy*cw+x1/8)*lutBins]
		cellGroupsAVX2(&h[0], &histLUT[0], &histPerm[0], &offs[0], (x1-x0)/32)
	}
	for cx := groups * 4; cx < cw; cx++ {
		c.cellHistogramLUT(pix, imgW, imgH, cx, cy, hist[(cy*cw+cx)*lutBins:][:lutBins])
	}
	return true
}

// histOffset is the byte offset in histLUT of gradient (dx, dy)'s
// entry, as histIndexAVX2 computes it.
func histOffset(dx, dy int) int32 {
	return int32(histLUTIndex(dx, dy) * int(unsafe.Sizeof(histEntry{})))
}
