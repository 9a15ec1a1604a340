//go:build !amd64 || purego

package hog

// cellRowHistogramsAsm reports that no vector body is built for this
// target (or the purego tag is set): cellRowHistogramsLUT fills every
// cell row.
func (c Config) cellRowHistogramsAsm(pix []uint8, imgW, imgH, cy, cw int, hist []float64) bool {
	return false
}

// normalizeRowAsm reports that no vector body is built for this target
// (or the purego tag is set): normalizeTail normalizes every block row.
func (bg *BlockGrid) normalizeRowAsm(fm *FeatureMap, cy int) bool {
	return false
}
