package img

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// fuzzSide maps a fuzz input to an image side: 1-4096 is taken as is
// (the seeds pin frame and pyramid sizes), anything else folds into
// 1-300, where the mutator spends most of its time.
func fuzzSide(v uint16) int {
	if v >= 1 && v <= 4096 {
		return int(v)
	}
	return 1 + int(v)%300
}

// fuzzArea caps w x h at 4 Mpixel by shortening h, keeping one
// iteration fast whatever the widths.
func fuzzArea(w, h int) (int, int) {
	return w, max(1, min(h, (1<<22)/w))
}

// fuzzPixels fills p from rng: uniform bytes, or (odd kind) only 0 and
// 255, the largest neighbour differences the kernels multiply.
func fuzzPixels(rng *rand.Rand, p []uint8, kind uint8) {
	for i := range p {
		if kind%2 == 1 {
			p[i] = uint8(rng.Intn(2)) * 255
		} else {
			p[i] = uint8(rng.Intn(256))
		}
	}
}

// guarded returns n bytes in the middle of a buffer whose 64 bytes on
// either side hold the guard, and a check that the guards are intact.
func guarded(n int) ([]uint8, func(t *testing.T, name string)) {
	const pad, guard = 64, 0xa5
	buf := bytes.Repeat([]uint8{guard}, n+2*pad)
	return buf[pad : pad+n], func(t *testing.T, name string) {
		t.Helper()
		for i, v := range buf {
			if (i < pad || i >= pad+n) && v != guard {
				t.Fatalf("%s: wrote %d outside dst at offset %d", name, v, i-pad)
			}
		}
	}
}

// resizeRef is ResizeGray's arithmetic derived per pixel, with no
// tables and no chunks.
func resizeRef(g *Gray, w, h int) []uint8 {
	out := make([]uint8, w*h)
	sx := (int64(g.W) << 16) / int64(w)
	sy := (int64(g.H) << 16) / int64(h)
	for y := 0; y < h; y++ {
		fy := max(0, (int64(y)*sy+sy/2)-1<<15)
		y0, wy := int(fy>>16), int32(fy&0xffff)
		y1 := min(y0+1, g.H-1)
		for x := 0; x < w; x++ {
			fx := max(0, (int64(x)*sx+sx/2)-1<<15)
			x0, wx := int(fx>>16), int32(fx&0xffff)
			x1 := min(x0+1, g.W-1)
			p00, p01 := int32(g.Pix[y0*g.W+x0]), int32(g.Pix[y0*g.W+x1])
			p10, p11 := int32(g.Pix[y1*g.W+x0]), int32(g.Pix[y1*g.W+x1])
			top := p00 + ((p01-p00)*wx)>>16
			bot := p10 + ((p11-p10)*wx)>>16
			out[y*w+x] = clamp8(top + ((bot-top)*wy)>>16)
		}
	}
	return out
}

// FuzzResizeGray checks ResizeGrayInto (the AVX2 row body on CPUs that
// have it) and the portable body against a per-pixel reference,
// bitwise, and checks that neither writes outside dst. Sides run 1-300
// under mutation (sources under 4 wide, whose rows no 4-byte fetch
// fits, and under 16, which take gather mode, included), and the seeds
// add the 1080p pyramid levels on both sides of the window/gather
// switch near scale 4.7 and targets wider than the 2048-column table
// chunk.
func FuzzResizeGray(f *testing.F) {
	for _, s := range [][4]uint16{
		{1920, 1080, 1536, 864}, {1920, 1080, 1228, 691}, {1920, 1080, 983, 552},
		{1920, 1080, 640, 360}, {1920, 1080, 402, 226}, {1920, 1080, 80, 45},
		{1920, 40, 400, 9}, {2000, 10, 415, 3},
		{3840, 8, 3072, 6}, {300, 20, 2500, 31}, {2100, 3, 2060, 5},
		{3, 5, 17, 9}, {1, 1, 5, 5}, {5, 5, 1, 1}, {2, 300, 3, 1}, {4, 4, 8, 8},
		{64, 64, 64, 64}, {37, 11, 36, 12},
	} {
		f.Add(uint64(s[0])*31+uint64(s[2]), s[0], s[1], s[2], s[3], uint8(s[2]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, sw, sh, dw, dh uint16, kind uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := NewGray(fuzzArea(fuzzSide(sw), fuzzSide(sh)))
		fuzzPixels(rng, g.Pix, kind)
		w, h := fuzzArea(fuzzSide(dw), fuzzSide(dh))
		want := resizeRef(g, w, h)
		name := fmt.Sprintf("%dx%d -> %dx%d", g.W, g.H, w, h)

		pix, intact := guarded(w * h)
		out := &Gray{W: w, H: h, Pix: pix}
		resizeGray(out, g, false)
		if !bytes.Equal(out.Pix, want) {
			t.Fatalf("portable %s differs from the reference", name)
		}
		intact(t, "portable "+name)

		pix, intact = guarded(w * h)
		if out = ResizeGrayInto(&Gray{Pix: pix[:0]}, g, w, h); &out.Pix[0] != &pix[0] {
			t.Fatalf("dispatch %s did not reuse dst", name)
		}
		if !bytes.Equal(out.Pix, want) {
			t.Fatalf("dispatch %s differs from the reference", name)
		}
		intact(t, "dispatch "+name)
	})
}

// FuzzRGBToGrayRows checks RGBToGrayRows (the AVX2 body on CPUs that
// have it) converting a frame in up to five row bands at mutated
// edges, last band first, against the portable body over the whole
// frame, bitwise, and checks after every band that only that band's
// rows changed.
func FuzzRGBToGrayRows(f *testing.F) {
	for _, s := range [][2]uint16{
		{1920, 1080}, {640, 360}, {1, 1}, {2, 3}, {7, 5}, {8, 1}, {9, 2}, {300, 7},
	} {
		f.Add(uint64(s[0])*7+uint64(s[1]), s[0], s[1], uint64(0x0403020100), uint8(0))
	}
	f.Add(uint64(5), uint16(31), uint16(29), uint64(0x010203ff7f), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, w16, h16 uint16, cuts uint64, kind uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		m := NewRGB(fuzzArea(fuzzSide(w16), fuzzSide(h16)))
		fuzzPixels(rng, m.Pix, kind)
		want := make([]uint8, m.W*m.H)
		rgbToGrayGo(want, m.Pix)

		// Band edges from the low bytes of cuts, run last band first.
		edges := []int{0, m.H}
		for c := cuts; c != 0; c >>= 8 {
			if len(edges) < 6 {
				edges = append(edges, int(c&0xff)*m.H/256)
			}
		}
		sort.Ints(edges)
		pix, intact := guarded(m.W * m.H)
		const unset = 0x5a
		for i := range pix {
			pix[i] = unset
		}
		dst := &Gray{W: m.W, H: m.H, Pix: pix}
		for b := len(edges) - 2; b >= 0; b-- {
			y0, y1 := edges[b], edges[b+1]
			RGBToGrayRows(dst, m, y0, y1)
			for i, v := range pix {
				y := i / m.W
				if y >= y0 && v != want[i] {
					t.Fatalf("%dx%d rows [%d,%d): pixel %d = %d, want %d", m.W, m.H, y0, y1, i, v, want[i])
				}
				if y < y0 && v != unset {
					t.Fatalf("%dx%d rows [%d,%d): wrote row %d", m.W, m.H, y0, y1, y)
				}
			}
			intact(t, fmt.Sprintf("%dx%d rows [%d,%d)", m.W, m.H, y0, y1))
		}
	})
}

// BenchmarkResizePyramid1080 builds a 1080p frame's pyramid levels 1..n
// at scale 1.25 down to 64x64 serially, each from the frame, into
// reused buffers, as a frame stack does. Bytes are output pixels.
func BenchmarkResizePyramid1080(b *testing.B) {
	g := randGray(rand.New(rand.NewSource(1)), 1920, 1080)
	sizes := PyramidSizes(g.W, g.H, 1.25, 64, 64)[1:]
	levels := make([]*Gray, len(sizes))
	build := func() {
		for i, s := range sizes {
			levels[i] = ResizeGrayInto(levels[i], g, s[0], s[1])
		}
	}
	build() // allocate the level buffers outside the timed loop
	var n int64
	for _, s := range sizes {
		n += int64(s[0] * s[1])
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		build()
	}
}

// BenchmarkRGBToGray1080 converts a 1080p frame into a reused gray
// buffer on one goroutine. Bytes are RGB input.
func BenchmarkRGBToGray1080(b *testing.B) {
	m := randRGB(rand.New(rand.NewSource(1)), 1920, 1080)
	dst := RGBToGray(m)
	b.SetBytes(int64(len(m.Pix)))
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		dst = RGBToGrayInto(dst, m)
	}
}
