package img

// ResizeGray scales g to (w, h) using bilinear interpolation in fixed
// point (16.16), matching the hardware downscaler in the dark pipeline
// that reduces the 1920x1080 capture to 640x360.
func ResizeGray(g *Gray, w, h int) *Gray {
	return ResizeGrayInto(nil, g, w, h)
}

// ResizeGrayInto is ResizeGray writing into dst, reusing dst's pixel
// buffer when it has sufficient capacity (dst may be nil, and must not
// alias g). It returns the resized image — dst itself when reuse was
// possible — so steady-state pyramid loops rebuild their levels every
// frame without reallocating.
func ResizeGrayInto(dst *Gray, g *Gray, w, h int) *Gray {
	if w <= 0 || h <= 0 {
		// lint:invariant target dimensions are pipeline constants; non-positive is a caller bug
		panic("img: ResizeGray to non-positive size")
	}
	out := dst
	if out == nil {
		out = &Gray{}
	}
	out.W, out.H = w, h
	if cap(out.Pix) < w*h {
		out.Pix = make([]uint8, w*h)
	} else {
		out.Pix = out.Pix[:w*h]
	}
	if g.W == w && g.H == h {
		copy(out.Pix, g.Pix)
		return out
	}
	// Scale factors in 16.16 fixed point, sampling pixel centers.
	sx := (int64(g.W) << 16) / int64(w)
	sy := (int64(g.H) << 16) / int64(h)
	// The horizontal source coordinates and weights are the same for
	// every row, so they are tabulated once instead of rederived per
	// pixel — same arithmetic, so the output is bitwise unchanged. The
	// tables live on the stack (they must not escape) for pyramid-sized
	// targets; wider targets fall back to recomputing per pixel.
	const maxCols = 2048
	var x0s, x1s, wxs [maxCols]int32
	cols := w
	if cols > maxCols {
		cols = maxCols
	}
	for x := 0; x < cols; x++ {
		fx := (int64(x)*sx + sx/2) - 1<<15
		if fx < 0 {
			fx = 0
		}
		x0 := int32(fx >> 16)
		x1 := x0 + 1
		if int(x1) >= g.W {
			x1 = int32(g.W - 1)
		}
		x0s[x], x1s[x], wxs[x] = x0, x1, int32(fx&0xffff)
	}
	for y := 0; y < h; y++ {
		fy := (int64(y)*sy + sy/2) - 1<<15
		if fy < 0 {
			fy = 0
		}
		y0 := int(fy >> 16)
		wy := int32(fy & 0xffff)
		y1 := y0 + 1
		if y1 >= g.H {
			y1 = g.H - 1
		}
		row0 := g.Pix[y0*g.W : y0*g.W+g.W]
		row1 := g.Pix[y1*g.W : y1*g.W+g.W]
		dst := out.Pix[y*w : y*w+w]
		for x := 0; x < w; x++ {
			var x0, x1, wx int32
			if x < maxCols {
				x0, x1, wx = x0s[x], x1s[x], wxs[x]
			} else {
				fx := (int64(x)*sx + sx/2) - 1<<15
				if fx < 0 {
					fx = 0
				}
				x0 = int32(fx >> 16)
				x1 = x0 + 1
				if int(x1) >= g.W {
					x1 = int32(g.W - 1)
				}
				wx = int32(fx & 0xffff)
			}
			p00 := int32(row0[x0])
			p01 := int32(row0[x1])
			p10 := int32(row1[x0])
			p11 := int32(row1[x1])
			top := p00 + ((p01-p00)*wx)>>16
			bot := p10 + ((p11-p10)*wx)>>16
			dst[x] = clamp8(top + ((bot-top)*wy)>>16)
		}
	}
	return out
}

// ResizeRGB scales m to (w, h) channel by channel using the same
// bilinear kernel as ResizeGray.
func ResizeRGB(m *RGB, w, h int) *RGB {
	out := NewRGB(w, h)
	for c := 0; c < 3; c++ {
		plane := NewGray(m.W, m.H)
		for i := 0; i < m.W*m.H; i++ {
			plane.Pix[i] = m.Pix[3*i+c]
		}
		scaled := ResizeGray(plane, w, h)
		for i := 0; i < w*h; i++ {
			out.Pix[3*i+c] = scaled.Pix[i]
		}
	}
	return out
}

// DownsampleBinary reduces b by an integer factor using an OR-reduce
// over each factor x factor tile: a tile is foreground if any source
// pixel is. This is the decimation the dark-pipeline RTL applies after
// thresholding, chosen so that small taillight blobs survive.
func DownsampleBinary(b *Binary, factor int) *Binary {
	if factor <= 0 {
		// lint:invariant the decimation factor is a pipeline constant; non-positive is a caller bug
		panic("img: DownsampleBinary non-positive factor")
	}
	if factor == 1 {
		return b.Clone()
	}
	w := (b.W + factor - 1) / factor
	h := (b.H + factor - 1) / factor
	out := NewBinary(w, h)
	for y := 0; y < b.H; y++ {
		oy := y / factor
		row := y * b.W
		orow := oy * w
		for x := 0; x < b.W; x++ {
			if b.Pix[row+x] != 0 {
				out.Pix[orow+x/factor] = 1
			}
		}
	}
	return out
}

// PyramidSizes returns the level dimensions PyramidGray produces for
// a w x h source: each level smaller by the given per-level scale
// (> 1) until the image no longer covers (minW, minH). Exposed so the
// parallel detection engine can build the levels concurrently while
// staying geometry-identical to the serial pyramid.
func PyramidSizes(w, h int, scale float64, minW, minH int) [][2]int {
	return PyramidSizesInto(nil, w, h, scale, minW, minH)
}

// PyramidSizesInto is PyramidSizes appending into dst[:0], so a frame
// loop reuses one size list instead of allocating it every frame.
func PyramidSizesInto(dst [][2]int, w, h int, scale float64, minW, minH int) [][2]int {
	if scale <= 1 {
		// lint:invariant documented contract: scale must exceed 1
		panic("img: PyramidGray scale must exceed 1")
	}
	sizes := dst[:0]
	fw, fh := float64(w), float64(h)
	for w >= minW && h >= minH {
		sizes = append(sizes, [2]int{w, h}) // lint:alloc level count is O(log size); grows once, then the caller's list is reused
		fw /= scale
		fh /= scale
		w, h = int(fw), int(fh)
	}
	return sizes
}

// PyramidGray returns successively downscaled copies of g, each level
// smaller by the given per-level scale (> 1), until the image no longer
// covers (minW, minH). Level 0 is a copy of g itself. The multi-scale
// pedestrian detector scans every level with a fixed-size window.
func PyramidGray(g *Gray, scale float64, minW, minH int) []*Gray {
	sizes := PyramidSizes(g.W, g.H, scale, minW, minH)
	levels := make([]*Gray, len(sizes))
	for i, s := range sizes {
		levels[i] = ResizeGray(g, s[0], s[1])
	}
	return levels
}
