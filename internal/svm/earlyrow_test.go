package svm

import (
	"math"
	"slices"
	"testing"
)

// orderedDots returns the window at (ax, ay)'s partial responses in
// the early-exit evaluation order, each the same add chain
// EarlyMarginAt runs.
func orderedDots(bm *BlockModel, blocks []float64, lat Lattice, ax, ay int) []float64 {
	dots := make([]float64, len(bm.order))
	for k, p := range bm.order {
		cy := ay*lat.StepY + bm.ordPBY[k]*lat.BlockStride
		cx := ax*lat.StepX + bm.ordPBX[k]*lat.BlockStride
		blk := blocks[(cy*lat.NBX+cx)*bm.BlockLen:][:bm.BlockLen]
		w := bm.PosWeights(p)
		for i, v := range blk {
			dots[k] += w[i] * v
		}
	}
	return dots
}

// rejectDepth returns the position index at which EarlyMarginAt
// rejects the window at (ax, ay), or -1 when it survives.
func rejectDepth(bm *BlockModel, blocks []float64, lat Lattice, ax, ay int, thresh float64) int {
	acc := 0.0
	for k, d := range orderedDots(bm, blocks, lat, ax, ay) {
		acc += d
		if acc+bm.tail[k+1] <= thresh-bm.Bias {
			return k
		}
	}
	return -1
}

// checkRowAgainstOracle scores cands of row ay with EarlyMarginRow and
// with EarlyMarginAt one window at a time, and fails unless the
// survivors are exactly the oracle's non-rejected windows, in
// candidate order, with bitwise-equal margins.
func checkRowAgainstOracle(t *testing.T, bm *BlockModel, blocks []float64, lat Lattice, ay int, cands []int, thresh float64, rs *RowScratch) {
	t.Helper()
	got := bm.EarlyMarginRow(blocks, lat, ay, cands, thresh, rs)
	partial := make([]float64, bm.BW*bm.BH)
	var want []RowSurvivor
	for _, ax := range cands {
		m, rejected := bm.EarlyMarginAt(blocks, lat, ax, ay, thresh, partial)
		if !rejected {
			want = append(want, RowSurvivor{AX: ax, Margin: m})
		}
	}
	same := slices.EqualFunc(got, want, func(a, b RowSurvivor) bool {
		return a.AX == b.AX && math.Float64bits(a.Margin) == math.Float64bits(b.Margin)
	})
	if !same {
		t.Fatalf("row %d cands %v thresh %v: EarlyMarginRow %v, EarlyMarginAt %v", ay, cands, thresh, got, want)
	}
}

// TestEarlyMarginRowMatchesEarlyMarginAt is the row scorer's
// differential test against the per-window oracle, over randomized
// models and lattices: candidate lists of 0, 1, 3, 4, 5 and 9 windows
// (dense and gapped, as a prefilter or the temporal cache's served
// set leaves them), thresholds that reject at every depth of the
// evaluation order, and thresholds every window survives.
func TestEarlyMarginRowMatchesEarlyMarginAt(t *testing.T) {
	rng := splitmix64(2024)
	var rs RowScratch // reused across trials, as a sweep worker does
	// The shipped geometries first (vehicle 7x7 and pedestrian 3x7
	// windows of 36-float blocks), then random ones.
	shipped := [][3]int{{7, 7, 36}, {3, 7, 36}}
	depths := map[int]bool{}
	positions := 0
	for trial := 0; trial < 40; trial++ {
		bw := 1 + int(rng.next()%4)
		bh := 1 + int(rng.next()%4)
		blockLen := 4 + int(rng.next()%21)
		if trial < len(shipped) {
			bw, bh, blockLen = shipped[trial][0], shipped[trial][1], shipped[trial][2]
		}
		m := &Model{W: rng.fill(bw * bh * blockLen), Bias: rng.float()}
		if trial%2 == 0 {
			// A zero bias makes thresh - bias exact, so the boundary
			// thresholds below land exactly on the reject test's <=.
			m.Bias = 0
		}
		bm, err := NewBlockModel(m, bw, bh, blockLen)
		if err != nil {
			t.Fatal(err)
		}
		lat, blocks := randLattice(&rng, bw, bh, blockLen, 12)
		if err := bm.CheckLattice(lat, len(blocks)); err != nil {
			t.Fatal(err)
		}
		positions = max(positions, bw*bh)
		ay := int(rng.next() % uint64(lat.NAY))

		// Thresholds: ones that every window survives, ones that reject
		// everything at the first position, and for one probe window a
		// threshold per depth k that rejects it exactly there: midway
		// between its bound after k positions (where the <= test
		// closes) and its bound after k-1 (still open). For every
		// window the dense lists below hold, the bounds themselves
		// too: there the test compares equal values, and any change
		// to the window's dot or to the comparison flips the verdict.
		threshs := []float64{math.Inf(-1), -1e9, 1e9, math.Inf(1)}
		probe := int(rng.next() % uint64(lat.NAX))
		acc, open := 0.0, bm.tail[0]
		for k, d := range orderedDots(bm, blocks, lat, probe, ay) {
			acc += d
			closed := acc + bm.tail[k+1]
			threshs = append(threshs, (closed+open)/2+bm.Bias)
			open = closed
		}
		threshs = append(threshs, bm.WindowMargin(blocks, lat, probe, ay)+0.05*rng.float())
		for ax := 0; ax < 9; ax++ {
			acc := 0.0
			for k, d := range orderedDots(bm, blocks, lat, ax, ay) {
				acc += d
				threshs = append(threshs, acc+bm.tail[k+1]+bm.Bias)
			}
		}

		for _, thresh := range threshs {
			if d := rejectDepth(bm, blocks, lat, probe, ay, thresh); d >= 0 {
				depths[d] = true
			}
			for _, n := range []int{0, 1, 3, 4, 5, 9} {
				// Dense: anchors 0..n-1. Gapped: n anchors drawn in
				// ascending order with holes between them.
				dense := make([]int, n)
				for i := range dense {
					dense[i] = i
				}
				checkRowAgainstOracle(t, bm, blocks, lat, ay, dense, thresh, &rs)
				var gapped []int
				for ax := 0; ax < lat.NAX && len(gapped) < n; ax++ {
					if rng.next()%3 != 0 || lat.NAX-ax <= n-len(gapped) {
						gapped = append(gapped, ax)
					}
				}
				checkRowAgainstOracle(t, bm, blocks, lat, ay, gapped, thresh, &rs)
			}
		}
	}
	for k := 0; k < positions; k++ {
		if !depths[k] {
			t.Fatalf("no threshold rejected at depth %d of %d (covered %v)", k, positions, depths)
		}
	}
}

// FuzzEarlyMarginRow drives the row scorer against the per-window
// oracle over fuzzed model seeds, window geometries, thresholds and
// candidate sets (a bit mask over the lattice row's anchors). The
// seed corpus lives in testdata/fuzz/FuzzEarlyMarginRow.
func FuzzEarlyMarginRow(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(7), uint8(36), 0.5, uint16(0xffff))
	f.Add(uint64(2), uint8(3), uint8(7), uint8(36), -0.25, uint16(0x5a5a))
	f.Add(uint64(3), uint8(1), uint8(1), uint8(4), 0.0, uint16(0x0001))
	f.Add(uint64(4), uint8(2), uint8(3), uint8(9), math.Inf(1), uint16(0x0ff0))
	f.Fuzz(func(t *testing.T, seed uint64, bw8, bh8, bl8 uint8, thresh float64, mask uint16) {
		bw, bh := 1+int(bw8%7), 1+int(bh8%7)
		blockLen := 1 + int(bl8%40)
		rng := splitmix64(seed)
		m := &Model{W: rng.fill(bw * bh * blockLen), Bias: rng.float()}
		bm, err := NewBlockModel(m, bw, bh, blockLen)
		if err != nil {
			t.Fatal(err)
		}
		lat, blocks := randLattice(&rng, bw, bh, blockLen, 16)
		if err := bm.CheckLattice(lat, len(blocks)); err != nil {
			t.Fatal(err)
		}
		var cands []int
		for ax := 0; ax < 16; ax++ {
			if mask&(1<<ax) != 0 {
				cands = append(cands, ax)
			}
		}
		var rs RowScratch
		for ay := 0; ay < lat.NAY; ay++ {
			checkRowAgainstOracle(t, bm, blocks, lat, ay, cands, thresh, &rs)
		}
	})
}
