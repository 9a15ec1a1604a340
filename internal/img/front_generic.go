//go:build !amd64 || purego

package img

// resizeRowAsm and rgbToGrayAsm report that no vector body is built
// for this target (or the purego tag is set): the portable bodies run
// every pixel.
func resizeRowAsm(dst, row0, row1 []uint8, t *resizeTab, wy int32) int { return 0 }

func rgbToGrayAsm(out, pix []uint8) int { return 0 }
