package img

// Binary morphology with a square structuring element of the given
// radius (the (2r+1)x(2r+1) box the closing stage of the dark pipeline
// uses to remove threshold noise and seal small holes in light blobs).
// Pixels outside the image are treated as background.

// Dilate grows foreground regions by the structuring-element radius.
func Dilate(b *Binary, radius int) *Binary {
	if radius <= 0 {
		return b.Clone()
	}
	// Separable: horizontal max then vertical max.
	tmp := NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		row := y * b.W
		for x := 0; x < b.W; x++ {
			v := uint8(0)
			for dx := -radius; dx <= radius; dx++ {
				xx := x + dx
				if xx >= 0 && xx < b.W && b.Pix[row+xx] != 0 {
					v = 1
					break
				}
			}
			tmp.Pix[row+x] = v
		}
	}
	out := NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			v := uint8(0)
			for dy := -radius; dy <= radius; dy++ {
				yy := y + dy
				if yy >= 0 && yy < b.H && tmp.Pix[yy*b.W+x] != 0 {
					v = 1
					break
				}
			}
			out.Pix[y*b.W+x] = v
		}
	}
	return out
}

// Erode shrinks foreground regions by the structuring-element radius.
func Erode(b *Binary, radius int) *Binary {
	if radius <= 0 {
		return b.Clone()
	}
	tmp := NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		row := y * b.W
		for x := 0; x < b.W; x++ {
			v := uint8(1)
			for dx := -radius; dx <= radius; dx++ {
				xx := x + dx
				if xx < 0 || xx >= b.W || b.Pix[row+xx] == 0 {
					v = 0
					break
				}
			}
			tmp.Pix[row+x] = v
		}
	}
	out := NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			v := uint8(1)
			for dy := -radius; dy <= radius; dy++ {
				yy := y + dy
				if yy < 0 || yy >= b.H || tmp.Pix[yy*b.W+x] == 0 {
					v = 0
					break
				}
			}
			out.Pix[y*b.W+x] = v
		}
	}
	return out
}

// Close performs dilation followed by erosion: it fills holes and
// joins nearby fragments without (much) growing blob extents. The
// paper's pipeline (Fig. 4) applies closing right after downsampling.
func Close(b *Binary, radius int) *Binary {
	return Erode(Dilate(b, radius), radius)
}

// Open performs erosion followed by dilation, removing isolated
// foreground specks smaller than the structuring element.
func Open(b *Binary, radius int) *Binary {
	return Dilate(Erode(b, radius), radius)
}

// BinaryInto returns a w x h binary image backed by dst's pixel buffer
// when it has sufficient capacity (dst may be nil), or a new one. The
// pixels are unspecified; callers overwrite them.
func BinaryInto(dst *Binary, w, h int) *Binary {
	if dst == nil || cap(dst.Pix) < w*h {
		return NewBinary(w, h)
	}
	dst.W, dst.H = w, h
	dst.Pix = dst.Pix[:w*h]
	return dst
}

// CloseInto is Close writing into caller buffers: dst receives the
// closing of b, and tmp holds the separable passes' intermediate rows.
// dst and tmp must have b's size and be distinct from b and from each
// other. Pixels must be 0 or 1, as in every Binary; the result is
// Close(b, radius) bit for bit, without allocating.
//
// lint:hotpath
func CloseInto(dst, tmp, b *Binary, radius int) {
	if radius <= 0 {
		copy(dst.Pix, b.Pix)
		return
	}
	w := b.W
	for y := 0; y < b.H; y++ {
		dilateRow(tmp.Pix[y*w:][:w], b.Pix[y*w:][:w], radius)
	}
	dilateCols(dst, tmp, radius)
	for y := 0; y < b.H; y++ {
		erodeRow(tmp.Pix[y*w:][:w], dst.Pix[y*w:][:w], radius)
	}
	erodeCols(dst, tmp, radius)
}

// dilateRow ORs each pixel of in with its horizontal neighbours up to
// radius away into out; pixels beyond the row are background.
func dilateRow(out, in []uint8, radius int) {
	copy(out, in)
	for d := 1; d <= radius && d < len(in); d++ {
		for x := d; x < len(in); x++ {
			out[x] |= in[x-d]
		}
		for x := 0; x+d < len(in); x++ {
			out[x] |= in[x+d]
		}
	}
}

// erodeRow ANDs each pixel of in with its horizontal neighbours up to
// radius away into out; a neighbour beyond the row is background, so
// pixels within radius of either end erode away.
func erodeRow(out, in []uint8, radius int) {
	n := len(in)
	if 2*radius >= n {
		clear(out)
		return
	}
	copy(out, in)
	for d := 1; d <= radius; d++ {
		for x := d; x < n; x++ {
			out[x] &= in[x-d]
		}
		for x := 0; x+d < n; x++ {
			out[x] &= in[x+d]
		}
	}
	clear(out[:radius])
	clear(out[n-radius:])
}

// dilateCols ORs each row of in with the rows up to radius above and
// below it into dst; rows beyond the image are background.
func dilateCols(dst, in *Binary, radius int) {
	w := in.W
	for y := 0; y < in.H; y++ {
		out := dst.Pix[y*w:][:w]
		copy(out, in.Pix[y*w:][:w])
		for yy := max(y-radius, 0); yy <= min(y+radius, in.H-1); yy++ {
			if yy != y {
				orRow(out, in.Pix[yy*w:][:w])
			}
		}
	}
}

// erodeCols ANDs each row of in with the rows up to radius above and
// below it into dst; a row within radius of the top or bottom edge
// reaches a background row beyond the image and erodes away.
func erodeCols(dst, in *Binary, radius int) {
	w := in.W
	for y := 0; y < in.H; y++ {
		out := dst.Pix[y*w:][:w]
		if y < radius || y+radius >= in.H {
			clear(out)
			continue
		}
		copy(out, in.Pix[y*w:][:w])
		for yy := y - radius; yy <= y+radius; yy++ {
			if yy != y {
				andRow(out, in.Pix[yy*w:][:w])
			}
		}
	}
}

func orRow(out, in []uint8) {
	for x := range out {
		out[x] |= in[x]
	}
}

func andRow(out, in []uint8) {
	for x := range out {
		out[x] &= in[x]
	}
}
