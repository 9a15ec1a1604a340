package img

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randGray(rng *rand.Rand, w, h int) *Gray {
	g := NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

func randRGB(rng *rand.Rand, w, h int) *RGB {
	m := NewRGB(w, h)
	for i := range m.Pix {
		m.Pix[i] = uint8(rng.Intn(256))
	}
	return m
}

func TestRGBYCbCrRoundTripNearIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randRGB(rng, 31, 17)
	back := YCbCrToRGB(RGBToYCbCr(m))
	for i := range m.Pix {
		d := int(m.Pix[i]) - int(back.Pix[i])
		if d < -3 || d > 3 {
			t.Fatalf("round trip error %d at index %d", d, i)
		}
	}
}

func TestGrayLevelsMapToThemselves(t *testing.T) {
	// A gray RGB pixel must produce Y == the gray level and neutral chroma.
	for v := 0; v < 256; v += 17 {
		m := NewRGB(1, 1)
		m.Set(0, 0, uint8(v), uint8(v), uint8(v))
		c := RGBToYCbCr(m)
		if int(c.Y[0]) != v {
			t.Fatalf("Y for gray %d = %d", v, c.Y[0])
		}
		if c.Cb[0] < 127 || c.Cb[0] > 129 || c.Cr[0] < 127 || c.Cr[0] > 129 {
			t.Fatalf("chroma for gray %d = (%d,%d), want ~128", v, c.Cb[0], c.Cr[0])
		}
	}
}

func TestRedHasHighCr(t *testing.T) {
	m := NewRGB(1, 1)
	m.Set(0, 0, 255, 30, 30)
	c := RGBToYCbCr(m)
	if c.Cr[0] < 180 {
		t.Fatalf("Cr of red = %d, want > 180", c.Cr[0])
	}
	m.Set(0, 0, 30, 30, 255)
	c = RGBToYCbCr(m)
	if c.Cr[0] > 128 {
		t.Fatalf("Cr of blue = %d, want < 128", c.Cr[0])
	}
}

func TestRGBToGrayMatchesLumaPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randRGB(rng, 13, 7)
	g := RGBToGray(m)
	c := RGBToYCbCr(m)
	for i := range g.Pix {
		if g.Pix[i] != c.Y[i] {
			t.Fatalf("gray(%d)=%d != Y %d", i, g.Pix[i], c.Y[i])
		}
	}
}

// TestRGBToGrayRowsAnySplit: converting in row bands, in any order,
// gives RGBToGrayInto's image exactly, into a reused buffer too.
func TestRGBToGrayRowsAnySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randRGB(rng, 13, 11)
	want := RGBToGray(m)
	dst := NewGray(20, 20) // larger: GrayInto must reuse and resize it
	for _, bands := range []int{1, 2, 3, 11} {
		g := GrayInto(dst, m.W, m.H)
		if g != dst || g.W != m.W || g.H != m.H {
			t.Fatalf("GrayInto did not reuse a large enough buffer as %dx%d", m.W, m.H)
		}
		clear(g.Pix)
		for b := bands - 1; b >= 0; b-- {
			RGBToGrayRows(g, m, m.H*b/bands, m.H*(b+1)/bands)
		}
		if !bytes.Equal(g.Pix, want.Pix) {
			t.Fatalf("%d bands: gray differs from RGBToGray", bands)
		}
	}
}

func TestResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGray(rng, 20, 10)
	r := ResizeGray(g, 20, 10)
	if !bytes.Equal(g.Pix, r.Pix) {
		t.Fatal("identity resize changed pixels")
	}
}

func TestResizeConstantImageStaysConstant(t *testing.T) {
	g := NewGray(64, 64)
	g.Fill(137)
	for _, sz := range [][2]int{{32, 32}, {17, 9}, {128, 128}, {1, 1}, {640, 360}} {
		r := ResizeGray(g, sz[0], sz[1])
		for i, p := range r.Pix {
			if p != 137 {
				t.Fatalf("resize to %v: pixel %d = %d, want 137", sz, i, p)
			}
		}
	}
}

func TestResizePreservesMeanApproximately(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randGray(rng, 100, 80)
	r := ResizeGray(g, 50, 40)
	if d := g.Mean() - r.Mean(); d < -6 || d > 6 {
		t.Fatalf("mean drift %v too large", d)
	}
}

func TestResizeHDTVToDarkPipelineSize(t *testing.T) {
	g := NewGray(1920, 1080)
	r := ResizeGray(g, 640, 360)
	if r.W != 640 || r.H != 360 {
		t.Fatalf("got %dx%d", r.W, r.H)
	}
}

func TestDownsampleBinaryORSemantics(t *testing.T) {
	b := NewBinary(4, 4)
	b.Set(3, 3, 1) // single pixel in bottom-right tile
	d := DownsampleBinary(b, 2)
	if d.W != 2 || d.H != 2 {
		t.Fatalf("size %dx%d", d.W, d.H)
	}
	if d.At(1, 1) != 1 {
		t.Fatal("foreground pixel lost in OR-downsample")
	}
	if d.At(0, 0) != 0 {
		t.Fatal("background tile became foreground")
	}
}

func TestDownsampleBinaryPreservesForegroundExistence(t *testing.T) {
	f := func(seed int64, factor uint8) bool {
		fac := int(factor%4) + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewBinary(16, 16)
		for i := range b.Pix {
			if rng.Intn(10) == 0 {
				b.Pix[i] = 1
			}
		}
		d := DownsampleBinary(b, fac)
		return (b.Count() > 0) == (d.Count() > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPyramidGrayLevels(t *testing.T) {
	g := NewGray(128, 64)
	levels := PyramidGray(g, 1.25, 32, 16)
	if len(levels) < 3 {
		t.Fatalf("only %d pyramid levels", len(levels))
	}
	if levels[0].W != 128 || levels[0].H != 64 {
		t.Fatal("level 0 should match the input size")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].W >= levels[i-1].W {
			t.Fatalf("level %d not smaller than level %d", i, i-1)
		}
	}
}

func TestThreshold(t *testing.T) {
	g := NewGray(3, 1)
	g.Pix = []uint8{10, 128, 250}
	b := Threshold(g, 128)
	want := []uint8{0, 1, 1}
	for i := range want {
		if b.Pix[i] != want[i] {
			t.Fatalf("Threshold pix %d = %d, want %d", i, b.Pix[i], want[i])
		}
	}
}

func TestThresholdBand(t *testing.T) {
	g := NewGray(4, 1)
	g.Pix = []uint8{100, 150, 200, 250}
	b := ThresholdBand(g, 140, 210)
	want := []uint8{0, 1, 1, 0}
	for i := range want {
		if b.Pix[i] != want[i] {
			t.Fatalf("band pix %d = %d, want %d", i, b.Pix[i], want[i])
		}
	}
}

func TestOtsuSeparatesBimodal(t *testing.T) {
	g := NewGray(100, 1)
	for i := 0; i < 50; i++ {
		g.Pix[i] = 30
	}
	for i := 50; i < 100; i++ {
		g.Pix[i] = 220
	}
	th := OtsuThreshold(g)
	if th <= 30 || th > 220 {
		t.Fatalf("Otsu threshold %d not between modes", th)
	}
}

func TestDualThresholdSelectsBrightRed(t *testing.T) {
	m := NewRGB(3, 1)
	m.Set(0, 0, 250, 40, 40)   // bright red taillight
	m.Set(1, 0, 250, 250, 250) // bright white road light
	m.Set(2, 0, 60, 10, 10)    // dim red reflector
	c := RGBToYCbCr(m)
	b := DualThreshold(c, 60, 150, 255)
	if b.Pix[0] != 1 {
		t.Fatal("bright red pixel rejected")
	}
	if b.Pix[1] != 0 {
		t.Fatal("white light passed the chroma gate")
	}
	if b.Pix[2] != 0 {
		t.Fatal("dim pixel passed the luma gate")
	}
}

func TestDilateErodeBasics(t *testing.T) {
	b := NewBinary(7, 7)
	b.Set(3, 3, 1)
	d := Dilate(b, 1)
	if d.Count() != 9 {
		t.Fatalf("dilate count = %d, want 9", d.Count())
	}
	e := Erode(d, 1)
	if e.Count() != 1 || e.At(3, 3) != 1 {
		t.Fatalf("erode did not recover the seed: count=%d", e.Count())
	}
}

func TestErodeRemovesSpecks(t *testing.T) {
	b := NewBinary(10, 10)
	b.Set(5, 5, 1) // single speck
	if got := Erode(b, 1).Count(); got != 0 {
		t.Fatalf("speck survived erosion: %d", got)
	}
}

func TestCloseFillsHoles(t *testing.T) {
	b := NewBinary(9, 9)
	for y := 2; y < 7; y++ {
		for x := 2; x < 7; x++ {
			b.Set(x, y, 1)
		}
	}
	b.Set(4, 4, 0) // punch a hole
	c := Close(b, 1)
	if c.At(4, 4) != 1 {
		t.Fatal("closing did not fill the hole")
	}
}

func TestMorphologyMonotonicity(t *testing.T) {
	// Dilation is extensive, erosion anti-extensive.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBinary(12, 12)
		for i := range b.Pix {
			if rng.Intn(4) == 0 {
				b.Pix[i] = 1
			}
		}
		d := Dilate(b, 1)
		e := Erode(b, 1)
		for i := range b.Pix {
			if b.Pix[i] == 1 && d.Pix[i] == 0 {
				return false // dilation lost a pixel
			}
			if e.Pix[i] == 1 && b.Pix[i] == 0 {
				return false // erosion created a pixel
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIsExtensiveOnBlobs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBinary(16, 16)
		// seed a few blobs
		for k := 0; k < 3; k++ {
			x, y := rng.Intn(12)+2, rng.Intn(12)+2
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					b.Set(x+dx, y+dy, 1)
				}
			}
		}
		c := Close(b, 1)
		for i := range b.Pix {
			if b.Pix[i] == 1 && c.Pix[i] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroRadiusMorphologyIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBinary(8, 8)
	for i := range b.Pix {
		b.Pix[i] = uint8(rng.Intn(2))
	}
	if !bytes.Equal(Dilate(b, 0).Pix, b.Pix) || !bytes.Equal(Erode(b, 0).Pix, b.Pix) {
		t.Fatal("radius-0 morphology is not the identity")
	}
}
