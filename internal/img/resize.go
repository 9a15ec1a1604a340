package img

import "advdet/internal/cpu"

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
	resizeGray(out, g, true)
	return out
}

// resizeCols is the column chunk resizeGray tabulates at a time. The
// tables live on the stack (they must not escape), so every target
// width takes the tabulated path in chunks of this many columns.
const resizeCols = 2048

// resizeTab is one column chunk's tables. The horizontal source
// coordinates and weights are the same for every row, so they are
// tabulated once per chunk instead of rederived per pixel, and so is
// how the vector body fetches the chunk's first nv columns: column i
// reads its pair (x0, x0+1) from a 16-byte span of each row starting at
// base bases[i/4] (window mode), or starting at x0s[i] itself (gather
// mode, !window), and masks[i] holds the pair's offsets into that span
// in bytes 0 and 2 (0x80 in bytes 1 and 3, which zeroes them).
type resizeTab struct {
	x0s, x1s, wxs [resizeCols]int32
	masks         [resizeCols]uint32
	bases         [resizeCols / 4]int32
	nv            int
	window        bool
}

// tabulate fills t for columns [c0, c0+cols) of a resize of a
// srcW-wide row at 16.16 step sx. vec enables the vector tables.
func (t *resizeTab) tabulate(c0, cols int, sx int64, srcW int, vec bool) {
	for i := 0; i < cols; i++ {
		fx := (int64(c0+i)*sx + sx/2) - 1<<15
		if fx < 0 {
			fx = 0
		}
		x0 := int32(fx >> 16)
		x1 := x0 + 1
		if int(x1) >= srcW {
			x1 = int32(srcW - 1)
		}
		t.x0s[i], t.x1s[i], t.wxs[i] = x0, x1, int32(fx&0xffff)
	}
	t.nv, t.window = 0, false
	if !vec || !cpu.AVX2 {
		return
	}
	// Window mode, in groups of four columns: one 16-byte load per
	// row serves the group when its pairs lie inside the row and span
	// at most 16 bytes (scales below about 4.7). x0 never decreases,
	// so the groups that qualify are a prefix, found in order.
	for srcW >= 16 && t.nv+4 <= cols {
		base, last := min(t.x0s[t.nv], int32(srcW-16)), t.x0s[t.nv+3]
		if int(last)+2 > srcW || last+1-base > 15 {
			break
		}
		t.bases[t.nv/4] = base
		for i := t.nv; i < t.nv+4; i++ {
			t.masks[i] = resizeMask(t.x0s[i] - base)
		}
		t.nv += 4
	}
	if t.nv > 0 {
		t.window = true
		return
	}
	// Gather mode for coarser scales: every column whose 4 bytes at x0
	// lie inside the row fetches them on its own, into its own lane.
	for t.nv < cols && int(t.x0s[t.nv])+4 <= srcW {
		t.masks[t.nv] = resizeMask(int32(4 * (t.nv % 4)))
		t.nv++
	}
}

// resizeMask is the VPSHUFB mask taking bytes o and o+1 of a 16-byte
// span into the low and high words of a lane.
func resizeMask(o int32) uint32 {
	return uint32(o) | 0x80<<8 | uint32(o+1)<<16 | 0x80<<24
}

// resizeGray writes g bilinearly scaled to out's size, which differs
// from g's. vec lets rows run the vector body where the CPU has one;
// the portable body alone (vec false) is the oracle the fuzz target
// compares it against. Chunks and bodies split a row between them
// without changing any pixel: each output pixel is the same integer
// function of its four source pixels and two weights.
func resizeGray(out, g *Gray, vec bool) {
	w, h := out.W, out.H
	// Scale factors in 16.16 fixed point, sampling pixel centers.
	sx := (int64(g.W) << 16) / int64(w)
	sy := (int64(g.H) << 16) / int64(h)
	var t resizeTab
	for c0 := 0; c0 < w; c0 += resizeCols {
		cols := min(resizeCols, w-c0)
		t.tabulate(c0, cols, sx, g.W, vec)
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
			dst := out.Pix[y*w+c0 : y*w+c0+cols]
			i := resizeRowAsm(dst, row0, row1, &t, wy)
			resizeRowGo(dst[i:], row0, row1, t.x0s[i:cols], t.x1s[i:cols], t.wxs[i:cols], wy)
		}
	}
}

// resizeRowGo is the portable row body: dst[i] interpolates columns
// x0s[i] and x1s[i] of row0 and row1 at weights wxs[i] and wy (16.16).
func resizeRowGo(dst, row0, row1 []uint8, x0s, x1s, wxs []int32, wy int32) {
	x0s, x1s, wxs = x0s[:len(dst)], x1s[:len(dst)], wxs[:len(dst)]
	for i := range dst {
		x0, x1, wx := x0s[i], x1s[i], wxs[i]
		p00 := int32(row0[x0])
		p01 := int32(row0[x1])
		p10 := int32(row1[x0])
		p11 := int32(row1[x1])
		top := p00 + ((p01-p00)*wx)>>16
		bot := p10 + ((p11-p10)*wx)>>16
		dst[i] = clamp8(top + ((bot-top)*wy)>>16)
	}
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
