package svm

import (
	"math"
	"testing"
)

// splitmix64 is the seeded generator the block-model property tests
// draw from; deterministic so failures reproduce.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) float() float64 {
	return float64(s.next()>>11)/float64(1<<53)*2 - 1 // [-1, 1)
}

func (s *splitmix64) fill(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = s.float()
	}
	return v
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return d / scale
}

// TestBlockModelMarginMatchesModel is the core factoring property: on
// a trivial one-anchor lattice whose block grid is exactly one window
// (stride = block stride), WindowMargin must equal Model.Margin of the
// concatenated blocks within float reassociation (1e-9 relative),
// across randomized geometries and seeds.
func TestBlockModelMarginMatchesModel(t *testing.T) {
	rng := splitmix64(42)
	for trial := 0; trial < 50; trial++ {
		bw := 1 + int(rng.next()%5)
		bh := 1 + int(rng.next()%5)
		blockLen := 4 + int(rng.next()%40)
		m := &Model{W: rng.fill(bw * bh * blockLen), Bias: rng.float()}
		bm, err := NewBlockModel(m, bw, bh, blockLen)
		if err != nil {
			t.Fatal(err)
		}
		// The window's descriptor is its blocks concatenated in
		// row-major position order — identical to the grid layout when
		// the grid is exactly one window.
		desc := rng.fill(bw * bh * blockLen)
		lat := Lattice{NBX: bw, NBY: bh, StepX: 1, StepY: 1, NAX: 1, NAY: 1, BlockStride: 1}
		if err := bm.CheckLattice(lat, len(desc)); err != nil {
			t.Fatal(err)
		}
		got := bm.WindowMargin(desc, lat, 0, 0)
		want := m.Margin(desc)
		if rd := relDiff(got, want); rd > 1e-9 {
			t.Fatalf("trial %d (%dx%d blocks of %d): WindowMargin = %v, Margin = %v (rel %g)",
				trial, bw, bh, blockLen, got, want, rd)
		}
	}
}

// TestBlockModelLatticeMatchesModel checks every anchor of randomized
// multi-anchor lattices against a descriptor assembled from the same
// grid data, i.e. the exact geometry the pyramid scan uses.
func TestBlockModelLatticeMatchesModel(t *testing.T) {
	rng := splitmix64(7)
	for trial := 0; trial < 20; trial++ {
		bw := 1 + int(rng.next()%4)
		bh := 1 + int(rng.next()%4)
		blockLen := 4 + int(rng.next()%20)
		stride := 1 + int(rng.next()%3) // window-relative block stride
		step := 1 + int(rng.next()%3)   // anchor step in cells
		nax := 1 + int(rng.next()%4)
		nay := 1 + int(rng.next()%4)
		nbx := (nax-1)*step + (bw-1)*stride + 1
		nby := (nay-1)*step + (bh-1)*stride + 1
		m := &Model{W: rng.fill(bw * bh * blockLen), Bias: rng.float()}
		bm, err := NewBlockModel(m, bw, bh, blockLen)
		if err != nil {
			t.Fatal(err)
		}
		blocks := rng.fill(nbx * nby * blockLen)
		lat := Lattice{NBX: nbx, NBY: nby, StepX: step, StepY: step,
			NAX: nax, NAY: nay, BlockStride: stride}
		if err := bm.CheckLattice(lat, len(blocks)); err != nil {
			t.Fatal(err)
		}
		desc := make([]float64, 0, bw*bh*blockLen)
		for ay := 0; ay < nay; ay++ {
			for ax := 0; ax < nax; ax++ {
				desc = desc[:0]
				for pby := 0; pby < bh; pby++ {
					cy := ay*step + pby*stride
					for pbx := 0; pbx < bw; pbx++ {
						cx := ax*step + pbx*stride
						desc = append(desc, blocks[(cy*nbx+cx)*blockLen:][:blockLen]...)
					}
				}
				got := bm.WindowMargin(blocks, lat, ax, ay)
				want := m.Margin(desc)
				if rd := relDiff(got, want); rd > 1e-9 {
					t.Fatalf("trial %d anchor (%d,%d): WindowMargin = %v, Margin = %v (rel %g)",
						trial, ax, ay, got, want, rd)
				}
			}
		}
	}
}

func TestBlockModelInitErrors(t *testing.T) {
	m := &Model{W: make([]float64, 36)}
	if _, err := NewBlockModel(m, 2, 2, 10); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewBlockModel(m, 0, 2, 9); err == nil {
		t.Fatal("zero block count accepted")
	}
	if _, err := NewBlockModel(m, 2, 2, 9); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func TestBlockModelInitReuses(t *testing.T) {
	rng := splitmix64(5)
	var bm BlockModel
	big := &Model{W: rng.fill(4 * 9), Bias: 1}
	if err := bm.Init(big, 2, 2, 9); err != nil {
		t.Fatal(err)
	}
	small := &Model{W: rng.fill(9), Bias: 2}
	if err := bm.Init(small, 1, 1, 9); err != nil {
		t.Fatal(err)
	}
	if bm.Bias != 2 || bm.BW != 1 || bm.BH != 1 {
		t.Fatalf("reused model geometry %dx%d bias %v, want 1x1 bias 2", bm.BW, bm.BH, bm.Bias)
	}
	for i, w := range bm.PosWeights(0) {
		if w != small.W[i] {
			t.Fatalf("reused weights[%d] = %v, want %v", i, w, small.W[i])
		}
	}
}

func TestLatticeValidateRejectsOutOfRange(t *testing.T) {
	m := &Model{W: make([]float64, 2*2*9)}
	bm, err := NewBlockModel(m, 2, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]float64, 3*3*9)
	lat := Lattice{NBX: 3, NBY: 3, StepX: 1, StepY: 1, NAX: 3, NAY: 1, BlockStride: 1}
	// NAX=3 reaches block column (3-1)*1 + (2-1)*1 = 3 >= NBX.
	if err := bm.CheckLattice(lat, len(blocks)); err == nil {
		t.Fatal("out-of-range lattice accepted")
	}
	lat.NAX = 2
	if err := bm.CheckLattice(lat, len(blocks)); err != nil {
		t.Fatalf("in-range lattice rejected: %v", err)
	}
	if err := bm.CheckLattice(lat, 10); err == nil {
		t.Fatal("short block data accepted")
	}
	if err := bm.CheckLattice(Lattice{NBX: 3, NBY: 3, NAX: 1, NAY: 1, BlockStride: 1}, len(blocks)); err == nil {
		t.Fatal("zero anchor step accepted")
	}
}
