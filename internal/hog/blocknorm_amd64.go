//go:build !purego

package hog

import "advdet/internal/cpu"

// normChunk is how many blocks of a row one call of the vector body
// normalizes, and normCells the SoA row stride in cells: the chunk's
// normChunk+1 cells, padded. The two transposed cell rows (10 KB) stay
// in L1 for the kernel's three passes. blocknorm_amd64.s reads
// normCells as const_normCells.
const (
	normChunk = 64
	normCells = normChunk + 8
)

// normSoABytes is normRowAVX2's frame, the SoA of two cell rows, which
// its TEXT line spells as a literal; the two array types fail to
// compile unless they agree.
const normSoABytes = 10368

var _ [normSoABytes - 2*lutBins*normCells*8]struct{}
var _ [2*lutBins*normCells*8 - normSoABytes]struct{}

// normRowAVX2 L2Hys-normalizes groups groups of four adjacent 2x2-cell,
// 9-bin blocks of one block row into out, reading block i's cells from
// cells i and i+1 of the cell rows row0 and row1
// (blocknorm_amd64.s). The caller checks every bound.
//
//go:noescape
func normRowAVX2(out, row0, row1 *float64, clip float64, groups int)

// normalizeRowAsm normalizes block row cy and reports true when the
// CPU has AVX2, the geometry is 2x2-cell, 9-bin blocks, the clip is
// positive and the row holds at least four blocks; otherwise it
// leaves the row to normalizeTail and reports false. The row's groups
// of four blocks go through the vector body a chunk at a time: the
// chunk's cells of rows cy and cy+1 are transposed bin-major first, so
// the vector body reads element j of four adjacent blocks with one
// load. Each block takes normalizeBlock's operations in its order, so
// the result is bitwise identical. With a positive clip, VMINPD and
// Go's min agree on every input, NaN included. The blocks past the
// last group of four take the Go body.
//
// lint:hotpath
func (bg *BlockGrid) normalizeRowAsm(fm *FeatureMap, cy int) bool {
	c := bg.Cfg
	groups := bg.nbx / 4
	if !cpu.AVX2 || c.BlockCells != 2 || c.Bins != lutBins || !(c.ClipL2Hys > 0) || groups == 0 {
		return false
	}
	// Block row cy reads cells 0..4*groups of cell rows cy and cy+1.
	row0 := fm.hist[cy*fm.cw*lutBins:][:(4*groups+1)*lutBins]
	row1 := fm.hist[(cy+1)*fm.cw*lutBins:][:(4*groups+1)*lutBins]
	out := bg.norm[cy*bg.nbx*bg.blockLen:][:4*groups*bg.blockLen]
	normRowAVX2(&out[0], &row0[0], &row1[0], c.ClipL2Hys, groups)
	bg.normalizeTail(fm, groups*4, cy)
	return true
}
