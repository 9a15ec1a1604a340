package svm

import (
	"math"
	"testing"
)

// sameBits reports whether a and b are the same float64, bit for bit,
// counting any NaN equal to any NaN: the scalar and vector units may
// propagate different NaN payloads.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// planeMargins scores every anchor of lattice row ay through pl the
// way the sweep does: one plane row per block row the windows read,
// filled over the block columns the lattice reaches, then one margin
// per anchor.
func planeMargins(pl *PlaneLayout, blocks []float64, lat Lattice, bw, bh, ay int, anchors []int) []float64 {
	ncx := (lat.NAX-1)*lat.StepX + (bw-1)*lat.BlockStride + 1
	rows := make([][]float64, bh)
	for pby := range rows {
		rows[pby] = make([]float64, ncx*pl.Width)
		pl.FillRow(rows[pby], blocks, lat.NBX, ay*lat.StepY+pby*lat.BlockStride, ncx)
	}
	out := make([]float64, len(anchors))
	pl.Margins(out, rows, anchors)
	return out
}

// TestPlaneMarginsMatchWindowMargin is the plane scorer's exactness
// gate: over the shipped window geometries (vehicle 7x7 and pedestrian
// 3x7 blocks of 36 floats) and random ones, anchor steps of 1-3 cells
// on each axis, block strides of 1 and 2, and levels exactly one
// window, one anchor short of another and many windows wide, every
// window's plane margin is bitwise its WindowMargin, for dense and
// gapped anchor lists. One PlaneLayout is reused across every case, as
// a sweep's is across frames and models.
func TestPlaneMarginsMatchWindowMargin(t *testing.T) {
	rng := splitmix64(2026)
	var pl PlaneLayout
	geoms := [][3]int{{7, 7, 36}, {3, 7, 36}}
	for trial := 0; trial < 12; trial++ {
		geoms = append(geoms, [3]int{1 + int(rng.next()%5), 1 + int(rng.next()%5), 1 + int(rng.next()%40)})
	}
	windows := 0
	for _, g := range geoms {
		bw, bh, blockLen := g[0], g[1], g[2]
		m := &Model{W: rng.fill(bw * bh * blockLen), Bias: rng.float()}
		bm, err := NewBlockModel(m, bw, bh, blockLen)
		if err != nil {
			t.Fatal(err)
		}
		for sx := 1; sx <= 3; sx++ {
			for sy := 1; sy <= 3; sy++ {
				for bs := 1; bs <= 2; bs++ {
					pl.Init(bm, sx, sy, bs)
					// Level widths: exactly one window, one block
					// column short of a second anchor, and wide.
					spanX, spanY := (bw-1)*bs+1, (bh-1)*bs+1
					for _, nax := range []int{1, 2, 11} {
						lat := Lattice{StepX: sx, StepY: sy, BlockStride: bs,
							NAX: nax, NAY: 1 + int(rng.next()%3)}
						lat.NBX = (lat.NAX-1)*sx + spanX + int(rng.next()%2)*(sx-1)
						lat.NBY = (lat.NAY-1)*sy + spanY
						blocks := rng.fill(lat.NBX * lat.NBY * blockLen)
						if err := bm.CheckLattice(lat, len(blocks)); err != nil {
							t.Fatal(err)
						}
						var gapped []int
						dense := make([]int, lat.NAX)
						for ax := range dense {
							dense[ax] = ax
							if rng.next()%3 != 0 {
								gapped = append(gapped, ax)
							}
						}
						for ay := 0; ay < lat.NAY; ay++ {
							for _, anchors := range [][]int{dense, gapped} {
								got := planeMargins(&pl, blocks, lat, bw, bh, ay, anchors)
								for i, ax := range anchors {
									want := bm.WindowMargin(blocks, lat, ax, ay)
									if math.Float64bits(got[i]) != math.Float64bits(want) {
										t.Fatalf("%dx%d blocks of %d, step %dx%d, block stride %d, anchor (%d,%d): plane margin %v, WindowMargin %v",
											bw, bh, blockLen, sx, sy, bs, ax, ay, got[i], want)
									}
									windows++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d windows bitwise equal", windows)
}

// TestPlaneLayoutClasses pins the position classes of the shipped
// geometries: a pedestrian 3x7 window at a one-cell step reads every
// block at all 21 positions (one class, 24 wide); a vehicle 7x7 window
// at a two-cell step splits into classes of 16, 12, 12 and 9 positions.
func TestPlaneLayoutClasses(t *testing.T) {
	for _, tc := range []struct {
		bw, bh, step int
		widths       []int
	}{
		{3, 7, 1, []int{24}},
		{7, 7, 2, []int{16, 12, 12, 12}},
	} {
		bm, err := NewBlockModel(&Model{W: make([]float64, tc.bw*tc.bh*36)}, tc.bw, tc.bh, 36)
		if err != nil {
			t.Fatal(err)
		}
		var pl PlaneLayout
		pl.Init(bm, tc.step, tc.step, 1)
		if len(pl.classes) != len(tc.widths) {
			t.Fatalf("%dx%d step %d: %d classes, want %d", tc.bw, tc.bh, tc.step, len(pl.classes), len(tc.widths))
		}
		for c, w := range tc.widths {
			if pl.classes[c].width != w {
				t.Fatalf("%dx%d step %d: class %d is %d wide, want %d", tc.bw, tc.bh, tc.step, c, pl.classes[c].width, w)
			}
		}
	}
}

// planeBlocks fills n floats of one of the fuzz target's block kinds.
func planeBlocks(rng *splitmix64, n int, kind uint8) []float64 {
	v := rng.fill(n)
	for i := range v {
		switch kind % 5 {
		case 1: // zero, both signs
			v[i] = math.Copysign(0, v[i])
		case 2: // subnormal
			v[i] *= 0x1p-1060
		case 3: // huge: products and sums overflow to Inf
			v[i] *= 0x1p1020
		case 4: // special values sprinkled among ordinary ones
			switch rng.next() % 8 {
			case 0:
				v[i] = math.NaN()
			case 1:
				v[i] = math.Inf(1)
			case 2:
				v[i] = math.Inf(-1)
			}
		}
	}
	return v
}

// FuzzPlaneKernel checks the plane kernel the sweep runs (the AVX2
// body on CPUs that have it) and the portable body against a one-lane
// reference, bitwise with any NaN matching any NaN, and checks that
// neither writes outside its blocks' lanes. It covers block counts
// from 1 to 40 (odd ones and those below the assembly's chunk of
// eight), every class width from 4 to 24 lanes, block lengths 1-40,
// random, zero, subnormal, huge and NaN/Inf blocks and weights, and
// both plane layouts: block-major (one class, consecutive blocks) and
// class-compact (every sx-th block of a row into every sx-th plane
// slot). The seed corpus lives in testdata/fuzz/FuzzPlaneKernel.
func FuzzPlaneKernel(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(5), uint8(35), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(58), uint8(3), uint8(35), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(8), uint8(2), uint8(35), uint8(2), uint8(4))
	f.Add(uint64(4), uint8(14), uint8(0), uint8(8), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n8, groups8, bl8, layout8, kind8 uint8) {
		rng := splitmix64(seed)
		n := 1 + int(n8%40)
		cw := 4 * (1 + int(groups8%6))
		bl := 1 + int(bl8%40)
		// Layout: block-major (sx = 1) or class-compact over a plane
		// row whose slots are up to 8 floats wider than the class.
		sx := 1 + int(layout8%3)
		width := cw
		if sx > 1 {
			width += 4 * int(layout8/3%3)
		}
		dstStride, blkStride := sx*width, sx*bl
		wt := planeBlocks(&rng, bl*cw, kind8/5)
		blocks := planeBlocks(&rng, (n-1)*blkStride+bl, kind8)

		const guard = -12345.678
		want := make([]float64, (n-1)*dstStride+cw)
		for j := 0; j < n; j++ {
			for k := 0; k < cw; k++ {
				var d float64
				for i := 0; i < bl; i++ {
					d += float64(wt[i*cw+k] * blocks[j*blkStride+i])
				}
				want[j*dstStride+k] = d
			}
		}
		check := func(name string, run func(dst []float64)) {
			t.Helper()
			dst := make([]float64, len(want)+dstStride)
			for i := range dst {
				dst[i] = guard
			}
			run(dst)
			for i, got := range dst {
				j, k := i/dstStride, i%dstStride
				if j < n && k < cw {
					if !sameBits(got, want[i]) {
						t.Fatalf("%s n=%d cw=%d bl=%d sx=%d: block %d lane %d = %v, want %v", name, n, cw, bl, sx, j, k, got, want[i])
					}
				} else if got != guard {
					t.Fatalf("%s n=%d cw=%d bl=%d sx=%d: wrote %v outside the lanes at %d", name, n, cw, bl, sx, got, i)
				}
			}
		}
		check("go", func(dst []float64) { planeKernelGo(dst, dstStride, blocks, blkStride, n, wt, cw) })
		check("dispatch", func(dst []float64) { planeKernel(dst, dstStride, blocks, blkStride, n, wt, cw) })
		if planeKernelAsm(make([]float64, len(want)), dstStride, blocks, blkStride, n, wt, cw) {
			check("asm", func(dst []float64) { planeKernelAsm(dst, dstStride, blocks, blkStride, n, wt, cw) })
		}
	})
}
