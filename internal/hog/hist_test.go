package hog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"advdet/internal/cpu"
	"advdet/internal/img"
	"advdet/internal/par"
	"advdet/internal/synth"
)

// portableHist is the feature map of g through the portable Go body
// alone, cell row by cell row.
func portableHist(c Config, g *img.Gray) *FeatureMap {
	ensureHistLUT()
	cw, ch := c.CellsFor(g.W, g.H)
	m := &FeatureMap{Cfg: c, W: g.W, H: g.H, cw: cw, ch: ch, hist: make([]float64, cw*ch*c.Bins)}
	for cy := 0; cy < ch; cy++ {
		c.cellRowHistogramsLUT(g.Pix, g.W, g.H, cy, cw, m.hist)
	}
	return m
}

// fuzzSide maps a fuzz input to an image side: 1-4096 is taken as is
// (the seeds pin frame and pyramid sizes), anything else folds into
// 1-300, where the mutator spends most of its time.
func fuzzSide(v uint16) int {
	if v >= 1 && v <= 4096 {
		return int(v)
	}
	return 1 + int(v)%300
}

// fuzzGray fills a w x h image from rng by kind: uniform bytes; only 0
// and 255; 0/255 rectangles on a flat background, whose step edges and
// corners reach the LUT's |dx|, |dy| = 255 rows and corner entries; or
// a smooth ramp with small noise.
func fuzzGray(rng *rand.Rand, w, h int, kind uint8) *img.Gray {
	g := img.NewGray(w, h)
	switch kind % 4 {
	case 0:
		for i := range g.Pix {
			g.Pix[i] = uint8(rng.Intn(256))
		}
	case 1:
		for i := range g.Pix {
			g.Pix[i] = uint8(rng.Intn(2)) * 255
		}
	case 2:
		for i := range g.Pix {
			g.Pix[i] = 128
		}
		for r := 0; r < 1+rng.Intn(12); r++ {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			x1, y1 := x0+1+rng.Intn(w-x0), y0+1+rng.Intn(h-y0)
			v := uint8(rng.Intn(2)) * 255
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					g.Pix[y*w+x] = v
				}
			}
		}
	default:
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				g.Pix[y*w+x] = uint8((3*x + 5*y + rng.Intn(4)) % 256)
			}
		}
	}
	return g
}

// FuzzCellHistograms checks FeatureMap.ComputeCtx (the AVX2 cell-group
// body on CPUs that have it, the single-cell body for the cells past
// the last group of four) against the portable body alone, bitwise, at one and two
// workers, and the block grids built from the two maps. Sides run
// 1-300 under mutation, so widths take every cw%4 both with the last
// pixel column inside a cell (W == 8*cw, whose right-edge clamp the
// vector body's caller tabulates) and past the grid, and heights fall
// on both sides of one cell; the seeds add the 1080p pyramid levels at
// scale 1.25.
func FuzzCellHistograms(f *testing.F) {
	for i, s := range img.PyramidSizes(1920, 1080, 1.25, 64, 64) {
		f.Add(uint64(i), uint16(s[0]), uint16(s[1]), uint8(i))
	}
	for _, s := range [][2]uint16{
		{32, 8}, {39, 9}, {40, 16}, {47, 8}, {48, 17}, {55, 8}, {56, 9}, {63, 24},
		{1, 1}, {7, 8}, {8, 7}, {31, 31}, {257, 20}, {264, 9}, {300, 7},
	} {
		for kind := uint8(0); kind < 4; kind++ {
			f.Add(uint64(s[0])*11+uint64(kind), s[0], s[1], kind)
		}
	}
	c := DefaultConfig()
	f.Fuzz(func(t *testing.T, seed uint64, w16, h16 uint16, kind uint8) {
		w := fuzzSide(w16)
		h := max(1, min(fuzzSide(h16), (1<<22)/w))
		g := fuzzGray(rand.New(rand.NewSource(int64(seed))), w, h, kind)
		want := portableHist(c, g)
		wantBlocks, err := NewBlockGridCtx(context.Background(), want, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cpu.AVX2 && want.ch > 0 {
			scratch := make([]float64, want.cw*lutBins)
			if got := c.cellRowHistogramsAsm(g.Pix, w, h, 0, want.cw, scratch); got != (want.cw >= 4) {
				t.Fatalf("%dx%d: vector body ran %v with %d cells a row", w, h, got, want.cw)
			}
		}
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%dx%d kind %d workers %d", w, h, kind%4, workers)
			var m FeatureMap
			if err := m.ComputeCtx(context.Background(), c, g, workers); err != nil {
				t.Fatal(err)
			}
			if !sameBits(m.hist, want.hist) {
				t.Fatalf("%s: feature map differs from the portable body", name)
			}
			bg, err := NewBlockGridCtx(context.Background(), &m, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(bg.Data(), wantBlocks.Data()) {
				t.Fatalf("%s: block grid differs from the portable body's", name)
			}
		}
	})
}

// TestFeatureMapDirtyRefreshMatchesFull pins the temporal cache's
// premise across the two histogram bodies: a full ComputeCtx (the
// vector body where the CPU has it), then edits to random tiles
// refreshed through ComputeDirtyCtx over TileMap.DirtyCellMask (the
// portable per-cell body), equals a fresh full pass bitwise.
func TestFeatureMapDirtyRefreshMatchesFull(t *testing.T) {
	c := DefaultConfig()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(22))
	for _, s := range [][2]int{{640, 360}, {1003, 203}, {136, 72}} {
		g := noisy(s[0], s[1])
		tm := NewTileMap(DefaultTileSize)
		tm.Update(g)
		var m FeatureMap
		if err := m.ComputeCtx(ctx, c, g, 2); err != nil {
			t.Fatal(err)
		}
		tx, ty := tm.Dims()
		mask := make([]bool, m.cw*m.ch)
		for round := 0; round < 4; round++ {
			for e := 0; e < 1+rng.Intn(4); e++ {
				x0, y0 := rng.Intn(tx)*DefaultTileSize, rng.Intn(ty)*DefaultTileSize
				for y := y0; y < min(y0+DefaultTileSize, g.H); y++ {
					for x := x0; x < min(x0+DefaultTileSize, g.W); x++ {
						g.Pix[y*g.W+x] = uint8(rng.Intn(2)) * 255
					}
				}
			}
			tm.Update(g)
			if tm.DirtyCellMask(c, m.cw, m.ch, mask) == 0 {
				t.Fatalf("%dx%d round %d: no dirty cells after an edit", g.W, g.H, round)
			}
			if err := m.ComputeDirtyCtx(ctx, c, g, 2, mask); err != nil {
				t.Fatal(err)
			}
			var full FeatureMap
			if err := full.ComputeCtx(ctx, c, g, 1); err != nil {
				t.Fatal(err)
			}
			if !sameBits(m.hist, full.hist) {
				t.Fatalf("%dx%d round %d: refreshed feature map differs from a full pass", g.W, g.H, round)
			}
		}
	}
}

// drivePyramid1080 is a 1080p synth.Drive day frame's gray pyramid at
// scale 1.25 down to 64x64, the frame itself included.
func drivePyramid1080() []*img.Gray {
	sc := synth.NewDrive(1, 1920, 1080, synth.Day, 4, 1).Frame(0)
	g := img.RGBToGray(sc.Frame)
	levels := []*img.Gray{g}
	for _, s := range img.PyramidSizes(g.W, g.H, 1.25, 64, 64)[1:] {
		levels = append(levels, img.ResizeGray(g, s[0], s[1]))
	}
	return levels
}

// pyramidBytes is the pixel count of levels, for SetBytes.
func pyramidBytes(levels []*img.Gray) int64 {
	var n int64
	for _, g := range levels {
		n += int64(g.W * g.H)
	}
	return n
}

// BenchmarkFeatureMap1080 computes the feature maps of a 1080p day
// pyramid serially into reused maps, as one FeaturePass on a reused
// fan-out, the way a frame stack runs it. Bytes are pyramid pixels.
func BenchmarkFeatureMap1080(b *testing.B) {
	c := DefaultConfig()
	levels := drivePyramid1080()
	maps := make([]FeatureMap, len(levels))
	var fan par.Fanout
	var pass FeaturePass
	build := func() {
		for i, g := range levels {
			pass.Add(&maps[i], c, g)
		}
		if err := fan.Run(context.Background(), 1, pass.Len(), &pass); err != nil {
			b.Fatal(err)
		}
		pass.Reset()
	}
	build() // size the maps and build the LUT outside the timed loop
	b.SetBytes(pyramidBytes(levels))
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		build()
	}
}

// BenchmarkBlockGrid1080 normalizes the block grids of a 1080p day
// pyramid's feature maps serially into reused grids, as one BlockPass
// on a reused fan-out. Bytes are pyramid pixels.
func BenchmarkBlockGrid1080(b *testing.B) {
	c := DefaultConfig()
	levels := drivePyramid1080()
	maps := make([]FeatureMap, len(levels))
	grids := make([]BlockGrid, len(levels))
	var fan par.Fanout
	var pass BlockPass
	build := func() {
		for i := range grids {
			pass.Add(&grids[i], &maps[i])
		}
		if err := fan.Run(context.Background(), 1, pass.Len(), &pass); err != nil {
			b.Fatal(err)
		}
		pass.Reset()
	}
	for i, g := range levels {
		if err := maps[i].ComputeCtx(context.Background(), c, g, 1); err != nil {
			b.Fatal(err)
		}
	}
	build()
	b.SetBytes(pyramidBytes(levels))
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		build()
	}
}
