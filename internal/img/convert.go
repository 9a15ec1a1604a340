package img

// Color conversion follows full-range BT.601, computed in fixed point the
// way the RTL color-space converter does (16-bit intermediate, rounding
// shift), so software and the SoC model agree bit-for-bit.

func clamp8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// RGBToYCbCr converts an interleaved RGB image to planar full-range
// BT.601 YCbCr.
func RGBToYCbCr(m *RGB) *YCbCr {
	out := NewYCbCr(m.W, m.H)
	n := m.W * m.H
	for i := 0; i < n; i++ {
		r := int32(m.Pix[3*i])
		g := int32(m.Pix[3*i+1])
		b := int32(m.Pix[3*i+2])
		// Coefficients scaled by 2^16 with rounding, as in the
		// image/color standard-library conversion.
		y := (19595*r + 38470*g + 7471*b + 1<<15) >> 16
		cb := (-11056*r - 21712*g + 32768*b + 1<<15>>0) >> 16
		cr := (32768*r - 27440*g - 5328*b + 1<<15) >> 16
		out.Y[i] = clamp8(y)
		out.Cb[i] = clamp8(cb + 128)
		out.Cr[i] = clamp8(cr + 128)
	}
	return out
}

// YCbCrToRGB converts planar full-range BT.601 YCbCr back to
// interleaved RGB.
func YCbCrToRGB(c *YCbCr) *RGB {
	out := NewRGB(c.W, c.H)
	n := c.W * c.H
	for i := 0; i < n; i++ {
		y := int32(c.Y[i]) << 16
		cb := int32(c.Cb[i]) - 128
		cr := int32(c.Cr[i]) - 128
		r := (y + 91881*cr + 1<<15) >> 16
		g := (y - 22554*cb - 46802*cr + 1<<15) >> 16
		b := (y + 116130*cb + 1<<15) >> 16
		out.Pix[3*i] = clamp8(r)
		out.Pix[3*i+1] = clamp8(g)
		out.Pix[3*i+2] = clamp8(b)
	}
	return out
}

// RGBToGray converts to 8-bit luma using the BT.601 weights.
func RGBToGray(m *RGB) *Gray {
	return RGBToGrayInto(nil, m)
}

// RGBToGrayInto is RGBToGray writing into dst, reusing dst's pixel
// buffer when it has sufficient capacity (dst may be nil). It returns
// the converted image — dst itself when reuse was possible — so a frame
// loop converts every frame into one buffer instead of allocating.
func RGBToGrayInto(dst *Gray, m *RGB) *Gray {
	dst = GrayInto(dst, m.W, m.H)
	RGBToGrayRows(dst, m, 0, m.H)
	return dst
}

// GrayInto returns a w x h gray image backed by dst's pixel buffer
// when it has sufficient capacity (dst may be nil), or a new one.
// The pixels are unspecified; callers overwrite them.
func GrayInto(dst *Gray, w, h int) *Gray {
	if dst == nil || cap(dst.Pix) < w*h {
		return NewGray(w, h)
	}
	dst.W, dst.H = w, h
	dst.Pix = dst.Pix[:w*h]
	return dst
}

// RGBToGrayRows converts rows [y0, y1) of m into the same rows of dst,
// which must already have m's size (GrayInto). Every pixel depends on
// its own RGB triple only, so disjoint row ranges may be converted
// concurrently and any split gives RGBToGrayInto's image exactly.
func RGBToGrayRows(dst *Gray, m *RGB, y0, y1 int) {
	out := dst.Pix[y0*m.W : y1*m.W]
	// The vector body reads up to 4 bytes past its last pixel: the
	// rows after y1, read-only here, supply them where they exist.
	pix := m.Pix[3*y0*m.W:]
	i := rgbToGrayAsm(out, pix)
	rgbToGrayGo(out[i:], pix[3*i:3*len(out)])
}

// rgbToGrayGo is the portable gray body, converting the RGB triples of
// pix into out (len(pix) == 3*len(out)), and the oracle the vector
// body is fuzzed against.
func rgbToGrayGo(out, pix []uint8) {
	for i := range out {
		p := pix[3*i:][:3]
		r, g, b := int32(p[0]), int32(p[1]), int32(p[2])
		out[i] = clamp8((19595*r + 38470*g + 7471*b + 1<<15) >> 16)
	}
}

// GrayToRGB expands a grayscale image to three identical channels.
func GrayToRGB(g *Gray) *RGB {
	out := NewRGB(g.W, g.H)
	for i, p := range g.Pix {
		out.Pix[3*i], out.Pix[3*i+1], out.Pix[3*i+2] = p, p, p
	}
	return out
}
