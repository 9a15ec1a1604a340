package hog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"advdet/internal/cpu"
	"advdet/internal/img"
)

// portableBlocks is the block grid of fm through the portable Go body
// alone, block row by block row.
func portableBlocks(fm *FeatureMap) *BlockGrid {
	var p BlockPass
	bg := &BlockGrid{}
	p.Add(bg, fm)
	for cy := 0; cy < bg.nby; cy++ {
		bg.normalizeTail(fm, 0, cy)
	}
	return bg
}

// fuzzClip maps a fuzz byte to an L2Hys clip: 0 is the default 0.2,
// 255 is a zero clip (which the vector body declines), anything else
// k/128, so clips past 1 never bite and small ones bite everywhere.
func fuzzClip(k uint8) float64 {
	switch k {
	case 0:
		return DefaultConfig().ClipL2Hys
	case 255:
		return 0
	}
	return float64(k) / 128
}

// FuzzBlockGrid checks BlockGrid.ComputeCtx (the AVX2 block body on
// CPUs that have it, the Go body for the blocks past the last group of
// four) against the Go body alone, bitwise, at one and two workers.
// Sides run 1-300 under mutation, so rows take every nbx%4; the seeds
// add the 1080p pyramid levels at scale 1.25, rows just past the
// vector body's 64-block chunk, and the image kinds whose cells are
// zero (flat areas) or take the histogram table's |dx|, |dy| = 255
// entries (0/255 steps). On an AVX2 CPU it also checks that the vector
// body ran for every row of at least four blocks.
func FuzzBlockGrid(f *testing.F) {
	for i, s := range img.PyramidSizes(1920, 1080, 1.25, 64, 64) {
		f.Add(uint64(i), uint16(s[0]), uint16(s[1]), uint8(i), uint8(0))
	}
	for _, s := range [][2]uint16{
		{16, 16}, {39, 9}, {40, 16}, {47, 17}, {48, 16}, {56, 31}, {64, 24}, {72, 16},
		{520, 16}, {527, 17}, {528, 16}, {536, 24}, {552, 16}, {1040, 16}, {1064, 17},
	} {
		for kind := uint8(0); kind < 4; kind++ {
			f.Add(uint64(s[0])*13+uint64(kind), s[0], s[1], kind, uint8(0))
		}
	}
	for _, clip := range []uint8{1, 26, 64, 200, 255} {
		f.Add(uint64(clip), uint16(300), uint16(40), uint8(0), clip)
	}
	f.Fuzz(func(t *testing.T, seed uint64, w16, h16 uint16, kind, clip uint8) {
		c := DefaultConfig()
		c.ClipL2Hys = fuzzClip(clip)
		w := fuzzSide(w16)
		h := max(1, min(fuzzSide(h16), (1<<22)/w))
		g := fuzzGray(rand.New(rand.NewSource(int64(seed))), w, h, kind)
		fm := portableHist(c, g)
		want := portableBlocks(fm)
		if cpu.AVX2 && want.nby > 0 {
			if ran := want.normalizeRowAsm(fm, 0); ran != (want.nbx >= 4 && c.ClipL2Hys > 0) {
				t.Fatalf("%dx%d clip %v: vector body ran %v with %d blocks a row", w, h, c.ClipL2Hys, ran, want.nbx)
			}
			want = portableBlocks(fm) // the probe above rewrote row 0
		}
		for _, workers := range []int{1, 2} {
			var got BlockGrid
			if err := got.ComputeCtx(context.Background(), fm, workers); err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.Data(), want.Data()) {
				name := fmt.Sprintf("%dx%d kind %d clip %v workers %d", w, h, kind%4, c.ClipL2Hys, workers)
				for i, x := range got.Data() {
					if y := want.Data()[i]; !sameBits([]float64{x}, []float64{y}) {
						t.Fatalf("%s: block (%d, %d) element %d = %v, Go body %v", name,
							i/got.blockLen%got.nbx, i/got.blockLen/got.nbx, i%got.blockLen, x, y)
					}
				}
				t.Fatalf("%s: block grid differs from the Go body's", name)
			}
		}
	})
}
