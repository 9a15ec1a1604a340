//go:build !purego

package img

import "advdet/internal/cpu"

// resizeRowAVX2 is resizeRowGo's body in AVX2 assembly for n a
// positive multiple of 8 columns (front_amd64.s); idx is the window
// bases or, in gather mode, x0s (resizeTab). It reads and writes
// through raw pointers: the caller checks every bound.
//
//go:noescape
func resizeRowAVX2(dst, row0, row1 *uint8, idx *int32, masks *uint32, wxs *int32, n int, wy int32, window bool)

// rgbToGrayAVX2 is rgbToGrayGo's body in AVX2 assembly for n a
// positive multiple of 8 pixels; it reads 4 bytes past pixel n's
// triple (front_amd64.s). The caller checks every bound.
//
//go:noescape
func rgbToGrayAVX2(dst, pix *uint8, n int)

// resizeRowAsm runs the vector resize body over the leading multiple
// of 8 of dst's columns, at most t.nv, when the CPU has AVX2, and
// returns how many columns it wrote. Each column reads 16 bytes of
// each row (window mode) or 4 (gather mode) from a start that never
// decreases along the row (resizeTab), so checking the first and last
// read bounds them all.
//
// lint:hotpath
func resizeRowAsm(dst, row0, row1 []uint8, t *resizeTab, wy int32) int {
	n := min(len(dst), t.nv) &^ 7
	if !cpu.AVX2 || n == 0 {
		return 0
	}
	idx, span := t.x0s[:n], int32(4)
	if t.window {
		idx, span = t.bases[:n/4], 16
	}
	_, _ = row0[idx[0]], row1[idx[0]]
	_, _ = row0[idx[len(idx)-1]+span-1], row1[idx[len(idx)-1]+span-1]
	resizeRowAVX2(&dst[0], &row0[0], &row1[0], &idx[0], &t.masks[0], &t.wxs[0], n, wy, t.window)
	return n
}

// rgbToGrayAsm runs the vector gray body over the leading multiple of
// 8 of out's pixels whose 4-byte overread stays inside pix (the RGB
// triples of out, possibly followed by more), and returns how many
// pixels it converted.
//
// lint:hotpath
func rgbToGrayAsm(out, pix []uint8) int {
	n := min(len(out), (len(pix)-4)/3) &^ 7
	if !cpu.AVX2 || n <= 0 {
		return 0
	}
	_ = pix[3*n+3]
	rgbToGrayAVX2(&out[0], &pix[0], n)
	return n
}
