package img

// MaskParams selects the dark pipeline's taillight mask: a pixel is a
// light candidate when its luma is at least LumaThresh and, with
// UseChroma, its Cr lies in the band [CrLow, CrHigh]; every Factor x
// Factor tile of candidates is OR-reduced to one output pixel.
type MaskParams struct {
	LumaThresh    uint8
	CrLow, CrHigh uint8
	UseChroma     bool
	Factor        int // decimation factor, >= 1
}

// MaskSize returns the decimated mask size for a w x h frame: one
// output pixel per factor x factor tile, a partial tile at the right
// or bottom edge included.
func MaskSize(w, h, factor int) (mw, mh int) {
	return (w + factor - 1) / factor, (h + factor - 1) / factor
}

// TaillightMaskRows writes rows [oy0, oy1) of the decimated taillight
// mask of frame m into dst, which must have MaskSize's dimensions.
// Luma is read from gray, m's gray image (RGBToGrayRows over at least
// the source rows of the band): its BT.601 weights, rounding and clamp
// are RGBToYCbCr's Y, so the luma test is the same. Cr is computed
// from m only for pixels that pass the luma test. Each output row
// depends on its own factor source rows only, so disjoint row ranges
// may be written concurrently, and any split gives
//
//	DownsampleBinary(DualThreshold(RGBToYCbCr(m), p.LumaThresh, p.CrLow, p.CrHigh), p.Factor)
//
// bit for bit, or DownsampleBinary(Threshold(luma, p.LumaThresh),
// p.Factor) without UseChroma, reading every source pixel once instead
// of building the YCbCr planes, two full-size binaries and their AND.
//
// lint:hotpath
func TaillightMaskRows(dst *Binary, gray *Gray, m *RGB, p MaskParams, oy0, oy1 int) {
	f := p.Factor
	clear(dst.Pix[oy0*dst.W : oy1*dst.W])
	y1 := min(oy1*f, gray.H)
	for y := oy0 * f; y < y1; y++ {
		out := dst.Pix[(y/f)*dst.W:][:dst.W]
		row := gray.Pix[y*gray.W:][:gray.W]
		pix := m.Pix[3*y*m.W:][:3*m.W]
		for x, v := range row {
			if v < p.LumaThresh {
				continue
			}
			if p.UseChroma {
				q := pix[3*x:][:3]
				r, g, b := int32(q[0]), int32(q[1]), int32(q[2])
				cr := clamp8((32768*r-27440*g-5328*b+1<<15)>>16 + 128)
				if cr < p.CrLow || cr > p.CrHigh {
					continue
				}
			}
			out[x/f] = 1
		}
	}
}
