package hog

import (
	"context"
	"errors"
	"testing"

	"advdet/internal/img"
)

// noisy builds a deterministic textured image so histograms are
// non-trivial in every cell.
func noisy(w, h int) *img.Gray {
	g := img.NewGray(w, h)
	s := uint32(2463534242)
	for i := range g.Pix {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		g.Pix[i] = uint8(s)
	}
	return g
}

// TestFeatureMapWholeImageMatchesExtract: a whole-image descriptor
// from the cache equals Extract's, bitwise, for the 9-bin LUT path
// and a 6-bin config on the scalar gradient path, with the map reused
// from a different image first so each row task must zero its cells.
func TestFeatureMapWholeImageMatchesExtract(t *testing.T) {
	sixBins := DefaultConfig()
	sixBins.Bins = 6
	for _, cfg := range []Config{DefaultConfig(), sixBins} {
		g := noisy(64, 64)
		var fm FeatureMap
		if err := fm.ComputeCtx(context.Background(), cfg, noisy(72, 64), 2); err != nil {
			t.Fatal(err)
		}
		if err := fm.ComputeCtx(context.Background(), cfg, g, 2); err != nil {
			t.Fatal(err)
		}
		got := fm.Descriptor(0, 0, 64, 64, nil)
		want := cfg.Extract(g)
		if len(got) != len(want) {
			t.Fatalf("%d bins: descriptor length %d, want %d", cfg.Bins, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d bins: descriptor[%d] = %v, want %v (cache must be bitwise exact)", cfg.Bins, i, got[i], want[i])
			}
		}
	}
}

func TestFeatureMapParallelBitwiseEqual(t *testing.T) {
	cfg := DefaultConfig()
	g := noisy(160, 96)
	ref, err := cfg.NewFeatureMapCtx(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		fm, err := cfg.NewFeatureMapCtx(context.Background(), g, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.hist {
			if fm.hist[i] != ref.hist[i] {
				t.Fatalf("workers=%d: hist[%d] = %v, want %v", workers, i, fm.hist[i], ref.hist[i])
			}
		}
	}
}

func TestFeatureMapDescriptorWindows(t *testing.T) {
	cfg := DefaultConfig()
	g := noisy(128, 96)
	fm := cfg.NewFeatureMap(g)

	// An interior aligned window must produce a full-length descriptor.
	d := fm.Descriptor(16, 8, 64, 64, nil)
	if len(d) != cfg.DescriptorLen(64, 64) {
		t.Fatalf("descriptor length %d, want %d", len(d), cfg.DescriptorLen(64, 64))
	}

	// Interior cells are border-free, so the cached descriptor of an
	// interior window agrees with direct extraction except at the
	// window's own border cells. Spot-check the central block.
	sub := g.SubImage(img.Rect{X0: 16, Y0: 8, X1: 16 + 64, Y1: 8 + 64})
	direct := cfg.Extract(sub)
	if len(direct) != len(d) {
		t.Fatalf("direct length %d, cache length %d", len(direct), len(d))
	}

	// Unaligned anchors and windows leaving the grid fall back.
	if fm.Descriptor(17, 8, 64, 64, nil) != nil {
		t.Fatal("unaligned window must return nil")
	}
	if fm.Descriptor(96, 48, 64, 64, nil) != nil {
		t.Fatal("out-of-bounds window must return nil")
	}

	// dst reuse: the same backing array comes back.
	buf := make([]float64, cfg.DescriptorLen(64, 64))
	d2 := fm.Descriptor(16, 8, 64, 64, buf)
	if &d2[0] != &buf[0] {
		t.Fatal("descriptor did not reuse the provided buffer")
	}
}

func TestFeatureMapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DefaultConfig().NewFeatureMapCtx(ctx, noisy(64, 64), 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFeatureMapTinyImage(t *testing.T) {
	fm := DefaultConfig().NewFeatureMap(noisy(4, 4)) // smaller than one cell
	if fm.Descriptor(0, 0, 4, 4, nil) != nil {
		t.Fatal("sub-cell window must return nil")
	}
}
