package img

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestCloseIntoMatchesClose pins the buffered separable closing to
// Close on random maps of every density, including radii as large as
// the map and maps one pixel wide or tall, with reused buffers.
func TestCloseIntoMatchesClose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var dst, tmp *Binary
	for _, w := range []int{1, 2, 3, 5, 9, 17} {
		for _, h := range []int{1, 2, 4, 7, 12} {
			for _, p := range []float64{0.05, 0.4, 0.9} {
				b := NewBinary(w, h)
				for i := range b.Pix {
					if rng.Float64() < p {
						b.Pix[i] = 1
					}
				}
				for r := 0; r <= 6; r++ {
					dst, tmp = BinaryInto(dst, w, h), BinaryInto(tmp, w, h)
					CloseInto(dst, tmp, b, r)
					if want := Close(b, r); !bytes.Equal(dst.Pix, want.Pix) {
						t.Fatalf("%dx%d p=%v r=%d: CloseInto %v, Close %v", w, h, p, r, dst.Pix, want.Pix)
					}
				}
			}
		}
	}
}

// TestTaillightMaskRowsAnySplit: every split of the output rows, in any
// order, gives the whole-image composition of the threshold, chroma
// band and decimation.
func TestTaillightMaskRowsAnySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sz := range [][2]int{{1, 1}, {7, 5}, {30, 17}, {64, 48}} {
		m := randRGB(rng, sz[0], sz[1])
		g := RGBToGray(m)
		for _, f := range []int{1, 2, 3, 6} {
			for _, chroma := range []bool{true, false} {
				p := MaskParams{LumaThresh: 90, CrLow: 140, CrHigh: 200, UseChroma: chroma, Factor: f}
				var want *Binary
				if chroma {
					want = DownsampleBinary(DualThreshold(RGBToYCbCr(m), p.LumaThresh, p.CrLow, p.CrHigh), f)
				} else {
					want = DownsampleBinary(Threshold(g, p.LumaThresh), f)
				}
				mw, mh := MaskSize(m.W, m.H, f)
				dst := NewBinary(mw, mh)
				for i := range dst.Pix {
					dst.Pix[i] = 7 // stale content every row must overwrite
				}
				for oy1 := mh; oy1 > 0; {
					oy0 := max(0, oy1-1-rng.Intn(3))
					TaillightMaskRows(dst, g, m, p, oy0, oy1)
					oy1 = oy0
				}
				if dst.W != want.W || dst.H != want.H || !bytes.Equal(dst.Pix, want.Pix) {
					t.Fatalf("%dx%d f=%d chroma=%v: mask differs from the composition", sz[0], sz[1], f, chroma)
				}
			}
		}
	}
}
