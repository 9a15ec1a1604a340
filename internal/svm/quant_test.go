package svm

import (
	"math"
	"testing"

	"advdet/internal/fixed"
)

// randLattice draws a random but consistent lattice geometry plus a
// synthetic normalized block plane: non-negative blocks of L2 norm
// <= 1, the constraint set l2hys produces and the quantized early
// exit's bound leans on. The lattice is at least minNAX anchors wide.
func randLattice(rng *splitmix64, bw, bh, blockLen, minNAX int) (Lattice, []float64) {
	lat := Lattice{
		StepX: 1 + int(rng.next()%3), StepY: 1 + int(rng.next()%3),
		NAX: 1 + int(rng.next()%6), NAY: 1 + int(rng.next()%6),
		BlockStride: 1 + int(rng.next()%2),
	}
	lat.NAX = max(lat.NAX, minNAX)
	lat.NBX = (lat.NAX-1)*lat.StepX + (bw-1)*lat.BlockStride + 1 + int(rng.next()%3)
	lat.NBY = (lat.NAY-1)*lat.StepY + (bh-1)*lat.BlockStride + 1 + int(rng.next()%3)
	blocks := make([]float64, lat.NBX*lat.NBY*blockLen)
	for b := 0; b < lat.NBX*lat.NBY; b++ {
		blk := blocks[b*blockLen:][:blockLen]
		var ss float64
		for i := range blk {
			blk[i] = math.Abs(rng.float())
			ss += blk[i] * blk[i]
		}
		inv := 1 / math.Sqrt(ss+1e-10)
		for i := range blk {
			blk[i] *= inv
		}
	}
	return lat, blocks
}

// TestQuantDecisionsMatchFloat is the bounded-divergence property at
// the svm layer: over randomized models, planes and thresholds, the
// quantized decision — with borderline windows resolved by the float
// oracle, exactly as the pipeline resolves them — must equal the
// float decision for every window, early exit on or off; and every
// accepted quantized score must sit within ErrBound of the float
// margin.
func TestQuantDecisionsMatchFloat(t *testing.T) {
	rng := splitmix64(123)
	borderlines, windows := 0, 0
	for trial := 0; trial < 60; trial++ {
		bw := 1 + int(rng.next()%4)
		bh := 1 + int(rng.next()%4)
		blockLen := 4 + int(rng.next()%21)
		m := &Model{W: rng.fill(bw * bh * blockLen), Bias: rng.float()}
		bm, err := NewBlockModel(m, bw, bh, blockLen)
		if err != nil {
			t.Fatal(err)
		}
		lat, blocks := randLattice(&rng, bw, bh, blockLen, 1)
		thresh := bm.WindowMargin(blocks, lat,
			int(rng.next()%uint64(lat.NAX)), int(rng.next()%uint64(lat.NAY))) +
			0.1*rng.float()

		var qm QuantBlockModel
		if err := qm.Init(m, bw, bh, blockLen, thresh); err != nil {
			t.Fatal(err)
		}
		qblocks := fixed.QuantizeQ14(nil, blocks)

		check := func(ax, ay int, score float64, dec QuantDecision, via string) {
			t.Helper()
			full := bm.WindowMargin(blocks, lat, ax, ay)
			floatDetects := full > thresh
			switch dec {
			case QuantAccept:
				if !floatDetects {
					t.Fatalf("trial %d (%d,%d) %s: quant accepted but float margin %v <= thresh %v",
						trial, ax, ay, via, full, thresh)
				}
				if d := math.Abs(score - full); d > qm.ErrBound() {
					t.Fatalf("trial %d (%d,%d) %s: score divergence %v exceeds bound %v",
						trial, ax, ay, via, d, qm.ErrBound())
				}
			case QuantReject:
				if floatDetects {
					t.Fatalf("trial %d (%d,%d) %s: quant rejected but float margin %v > thresh %v",
						trial, ax, ay, via, full, thresh)
				}
			case QuantBorderline:
				borderlines++ // resolved by the float oracle: agreement is structural
			}
		}

		for ay := 0; ay < lat.NAY; ay++ {
			for ax := 0; ax < lat.NAX; ax++ {
				windows++
				sEarly, dEarly := qm.ScoreAt(qblocks, lat, ax, ay, true)
				sFull, dFull := qm.ScoreAt(qblocks, lat, ax, ay, false)
				check(ax, ay, sEarly, dEarly, "early")
				check(ax, ay, sFull, dFull, "full")
				// Early exit may only turn non-rejects into nothing —
				// never the other way around.
				if dEarly != QuantReject && (dEarly != dFull || sEarly != sFull) {
					t.Fatalf("trial %d (%d,%d): early (%v,%v) != full (%v,%v)",
						trial, ax, ay, sEarly, dEarly, sFull, dFull)
				}
				if dEarly == QuantReject && dFull == QuantAccept {
					t.Fatalf("trial %d (%d,%d): early bail dropped an accepted window", trial, ax, ay)
				}
			}
		}
	}
	if borderlines*10 > windows {
		t.Fatalf("guard band too wide: %d of %d windows borderline", borderlines, windows)
	}
}
