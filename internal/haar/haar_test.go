package haar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"advdet/internal/img"
	"advdet/internal/synth"
)

func TestIntegralSums(t *testing.T) {
	g := img.NewGray(4, 3)
	for i := range g.Pix {
		g.Pix[i] = uint8(i + 1) // 1..12
	}
	it := NewIntegral(g)
	if got := it.Sum(0, 0, 4, 3); got != 78 {
		t.Fatalf("full sum = %d, want 78", got)
	}
	if got := it.Sum(1, 1, 3, 3); got != int64(6+7+10+11) {
		t.Fatalf("inner sum = %d", got)
	}
	if got := it.Sum(2, 1, 2, 3); got != 0 {
		t.Fatalf("empty rect sum = %d", got)
	}
}

func TestIntegralClamps(t *testing.T) {
	g := img.NewGray(3, 3)
	g.Fill(10)
	it := NewIntegral(g)
	if got := it.Sum(-5, -5, 10, 10); got != 90 {
		t.Fatalf("clamped sum = %d, want 90", got)
	}
}

func TestIntegralMatchesBruteForce(t *testing.T) {
	f := func(seed int64, ax0, ay0, aw, ah uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := img.NewGray(16, 16)
		for i := range g.Pix {
			g.Pix[i] = uint8(rng.Intn(256))
		}
		it := NewIntegral(g)
		x0, y0 := int(ax0%16), int(ay0%16)
		x1, y1 := x0+int(aw%8), y0+int(ah%8)
		var want int64
		for y := y0; y < y1 && y < 16; y++ {
			for x := x0; x < x1 && x < 16; x++ {
				want += int64(g.Pix[y*16+x])
			}
		}
		return it.Sum(x0, y0, x1, y1) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureEdgeResponses(t *testing.T) {
	// Top-bright/bottom-dark image: EdgeH responds positive, EdgeV ~0.
	g := img.NewGray(16, 16)
	for y := 0; y < 8; y++ {
		for x := 0; x < 16; x++ {
			g.Set(x, y, 200)
		}
	}
	it := NewIntegral(g)
	eh := Feature{Kind: EdgeH, X: 0, Y: 0, W: 16, H: 16}
	ev := Feature{Kind: EdgeV, X: 0, Y: 0, W: 16, H: 16}
	if eh.Eval(it, 0, 0) <= 0 {
		t.Fatal("EdgeH missed a horizontal edge")
	}
	if r := ev.Eval(it, 0, 0); r != 0 {
		t.Fatalf("EdgeV = %v on a symmetric image", r)
	}
}

func TestCenterFeatureRespondsToBlob(t *testing.T) {
	g := img.NewGray(16, 16)
	img.FillRectGray(g, img.Rect{X0: 6, Y0: 6, X1: 10, Y1: 10}, 255)
	it := NewIntegral(g)
	c := Feature{Kind: Center, X: 2, Y: 2, W: 12, H: 12}
	if c.Eval(it, 0, 0) <= 0 {
		t.Fatal("Center feature missed a central blob")
	}
	// An empty window must respond zero.
	empty := NewIntegral(img.NewGray(16, 16))
	if r := c.Eval(empty, 0, 0); r != 0 {
		t.Fatalf("Center = %v on empty window", r)
	}
}

func TestFeatureOffsetEquivalence(t *testing.T) {
	// Evaluating at an offset must equal evaluating a cropped window.
	rng := rand.New(rand.NewSource(5))
	g := img.NewGray(32, 32)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	f := Feature{Kind: EdgeV, X: 1, Y: 2, W: 8, H: 8}
	whole := NewIntegral(g)
	crop := NewIntegral(g.SubImage(img.Rect{X0: 5, Y0: 7, X1: 5 + 16, Y1: 7 + 16}))
	if a, b := f.Eval(whole, 5, 7), f.Eval(crop, 0, 0); a != b {
		t.Fatalf("offset eval %v != crop eval %v", a, b)
	}
}

func TestGenerateFeaturesNonEmptyAndInBounds(t *testing.T) {
	pool := GenerateFeatures(24, 24, 4)
	if len(pool) == 0 {
		t.Fatal("empty pool")
	}
	for _, f := range pool {
		if f.X < 0 || f.Y < 0 || f.X+f.W > 24 || f.Y+f.H > 24 {
			t.Fatalf("feature out of bounds: %+v", f)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, DefaultTrainOptions()); err == nil {
		t.Fatal("empty training set accepted")
	}
	a := img.NewGray(8, 8)
	b := img.NewGray(10, 10)
	if _, err := Train([]*img.Gray{a}, []*img.Gray{b}, DefaultTrainOptions()); err == nil {
		t.Fatal("mismatched window sizes accepted")
	}
}

func TestTrainSeparatesBrightBlobWindows(t *testing.T) {
	// Positives have a bright central blob (taillight-like), negatives
	// are streaks and noise — the baseline's actual job at night.
	rng := synth.NewRNG(9)
	var pos, neg []*img.Gray
	for i := 0; i < 40; i++ {
		p := img.NewGray(16, 16)
		cx, cy := 6+rng.Intn(4), 6+rng.Intn(4)
		r := 2 + rng.Intn(3)
		img.FillRectGray(p, img.Rect{X0: cx - r, Y0: cy - r, X1: cx + r, Y1: cy + r}, 230)
		pos = append(pos, p)

		n := img.NewGray(16, 16)
		if rng.Bool(0.5) {
			y := rng.Intn(16)
			img.FillRectGray(n, img.Rect{X0: 0, Y0: y, X1: 16, Y1: y + 2}, 230)
		} else {
			for k := 0; k < 8; k++ {
				n.Set(rng.Intn(16), rng.Intn(16), 230)
			}
		}
		neg = append(neg, n)
	}
	o := DefaultTrainOptions()
	o.Rounds = 20
	o.FeatureStep = 4
	c, err := Train(pos, neg, o)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, p := range pos {
		if c.Classify(p) {
			correct++
		}
	}
	for _, n := range neg {
		if !c.Classify(n) {
			correct++
		}
	}
	if acc := float64(correct) / 80; acc < 0.9 {
		t.Fatalf("training accuracy %v", acc)
	}
}

func TestTrainVehicleWindows(t *testing.T) {
	// End-to-end sanity on the synthetic day vehicle crops.
	ds := synth.DayDataset(3, 32, 32, 40, 40)
	o := DefaultTrainOptions()
	o.Rounds = 25
	c, err := Train(ds.Pos, ds.Neg, o)
	if err != nil {
		t.Fatal(err)
	}
	test := synth.DayDataset(4, 32, 32, 25, 25)
	correct := 0
	for _, p := range test.Pos {
		if c.Classify(p) {
			correct++
		}
	}
	for _, n := range test.Neg {
		if !c.Classify(n) {
			correct++
		}
	}
	if acc := float64(correct) / 50; acc < 0.75 {
		t.Fatalf("held-out accuracy %v", acc)
	}
}

func TestClassifyResizes(t *testing.T) {
	ds := synth.DayDataset(5, 32, 32, 20, 20)
	o := DefaultTrainOptions()
	o.Rounds = 10
	c, err := Train(ds.Pos, ds.Neg, o)
	if err != nil {
		t.Fatal(err)
	}
	big := img.NewGray(64, 64) // must not panic
	c.Classify(big)
}

func TestAlphasPositive(t *testing.T) {
	ds := synth.DayDataset(8, 32, 32, 20, 20)
	o := DefaultTrainOptions()
	o.Rounds = 10
	c, err := Train(ds.Pos, ds.Neg, o)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Stumps {
		if s.Alpha <= 0 {
			t.Fatalf("stump %d alpha %v", i, s.Alpha)
		}
		if s.Polarity != 1 && s.Polarity != -1 {
			t.Fatalf("stump %d polarity %v", i, s.Polarity)
		}
	}
}
