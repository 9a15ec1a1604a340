package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"advdet/internal/dbn"
	"advdet/internal/img"
	"advdet/internal/synth"
)

// oracleMask is the dark pipeline's front half as the composition of
// whole-image img operations — YCbCr planes, dual (or luma-only)
// threshold with AND, OR-decimation, closing — the reference the
// banded single-pass kernel must equal bit for bit.
func oracleMask(cfg DarkConfig, frame *img.RGB) *img.Binary {
	c := img.RGBToYCbCr(frame)
	var b *img.Binary
	if cfg.UseChroma {
		b = img.DualThreshold(c, cfg.LumaThresh, cfg.CrLow, cfg.CrHigh)
	} else {
		b = img.Threshold(c.Luma(), cfg.LumaThresh)
	}
	b = img.DownsampleBinary(b, cfg.FactorFor(frame.W))
	if cfg.UseClosing {
		b = img.Close(b, cfg.CloseRadius)
	}
	return b
}

// oracleScan is the DBN sweep as a serial per-window loop: every
// window counted pixel by pixel, expanded to floats and, with any
// foreground, classified by the allocating Classify.
func oracleScan(d *DarkDetector, b *img.Binary) ([]Light, ScanStats) {
	const side = dbn.Window
	var hits []Light
	var st ScanStats
	window := make([]float64, side*side)
	for y := 0; y+side <= b.H; y += d.Cfg.Stride {
		for x := 0; x+side <= b.W; x += d.Cfg.Stride {
			st.Windows++
			count := 0
			for wy := 0; wy < side; wy++ {
				for wx := 0; wx < side; wx++ {
					v := b.Pix[(y+wy)*b.W+x+wx]
					window[wy*side+wx] = float64(v)
					count += int(v)
				}
			}
			if count == 0 {
				continue
			}
			st.Evaluated++
			class, prob := d.Net.Classify(window)
			if class == dbn.ClassNone || prob < d.Cfg.MinProb {
				continue
			}
			st.Hits++
			hits = append(hits, Light{Box: img.Rect{X0: x, Y0: y, X1: x + side, Y1: y + side}, Class: class, Prob: prob})
		}
	}
	return mergeLights(hits), st
}

// oracleDetect is the whole pipeline over the two oracles.
func oracleDetect(d *DarkDetector, frame *img.RGB) []Detection {
	lights, _ := oracleScan(d, oracleMask(d.Cfg, frame))
	return NMS(d.pairLights(nil, lights, frame, d.Cfg.FactorFor(frame.W)), 0.3)
}

// noiseFrame is a w x h frame of uniform random pixels: about two in
// three pass the default luma test, so the chroma gate and its band
// edges are exercised everywhere.
func noiseFrame(rng *synth.RNG, w, h int) *img.RGB {
	m := img.NewRGB(w, h)
	for i := range m.Pix {
		m.Pix[i] = uint8(rng.Intn(256))
	}
	return m
}

// sparseFrame is a dark frame with a sprinkling of saturated red and
// white pixels, so the decimated map has isolated specks and gaps the
// closing must treat exactly as the reference does.
func sparseFrame(rng *synth.RNG, w, h int, density float64) *img.RGB {
	m := img.NewRGB(w, h)
	m.Fill(10, 8, 12)
	for i := 0; i < w*h; i++ {
		if rng.Float64() < density {
			if rng.Bool(0.7) {
				m.Pix[3*i], m.Pix[3*i+1], m.Pix[3*i+2] = 250, uint8(rng.Intn(90)), uint8(rng.Intn(90))
			} else {
				m.Pix[3*i], m.Pix[3*i+1], m.Pix[3*i+2] = 255, 250, 240
			}
		}
	}
	return m
}

func sameBinary(a, b *img.Binary) bool {
	return a.W == b.W && a.H == b.H && reflect.DeepEqual(a.Pix, b.Pix)
}

// kernelMask runs the banded kernel the way DetectCtx (gray nil) or
// DetectGrayCtx does and returns a copy of its map.
func kernelMask(t testing.TB, d *DarkDetector, frame *img.RGB, gray *img.Gray, bands int) *img.Binary {
	t.Helper()
	s := borrowDark()
	defer releaseDark(s)
	b, err := d.preprocess(context.Background(), s, frame, gray, bands)
	if err != nil {
		t.Fatal(err)
	}
	return b.Clone()
}

// TestTaillightMaskMatchesComposition pins the banded mask+closing
// kernel to the whole-image composition: sizes that are and are not
// multiples of the factor, factors 1, 2, 3 and 6 (and the width-derived
// factor), closing radii 0-2, chroma and closing off, band counts from
// one to more than the map has rows, with the gray plane converted in
// the scratch or handed in by the caller. Under -short and -race the
// 1080p and 1001x503 scenes are skipped and two band counts run.
func TestTaillightMaskMatchesComposition(t *testing.T) {
	rng := synth.NewRNG(71)
	type frameCase struct {
		name  string
		frame *img.RGB
	}
	var frames []frameCase
	for _, sz := range [][2]int{{640, 360}, {333, 217}, {97, 61}, {13, 7}, {6, 6}, {1, 1}, {2, 11}} {
		frames = append(frames,
			frameCase{fmt.Sprintf("noise-%dx%d", sz[0], sz[1]), noiseFrame(rng, sz[0], sz[1])},
			frameCase{fmt.Sprintf("sparse-%dx%d", sz[0], sz[1]), sparseFrame(rng, sz[0], sz[1], 0.02)})
	}
	sceneSizes := [][2]int{{1920, 1080}, {1001, 503}, {333, 217}}
	if testing.Short() || raceEnabled {
		sceneSizes = sceneSizes[2:]
	}
	for _, cond := range []synth.Condition{synth.Dark, synth.Dusk} {
		for _, sz := range sceneSizes {
			sc := synth.RenderScene(synth.NewRNG(uint64(sz[0])), synth.DefaultSceneConfig(sz[0], sz[1], cond))
			frames = append(frames, frameCase{fmt.Sprintf("%v-%dx%d", cond, sz[0], sz[1]), sc.Frame})
		}
	}
	type cfgCase struct {
		name string
		mut  func(*DarkConfig)
	}
	cfgs := []cfgCase{{"default", func(*DarkConfig) {}}}
	for _, f := range []int{1, 2, 3, 6} {
		for _, r := range []int{0, 1, 2} {
			f, r := f, r
			cfgs = append(cfgs, cfgCase{fmt.Sprintf("f%d-r%d", f, r), func(c *DarkConfig) { c.Downsample, c.CloseRadius = f, r }})
		}
	}
	cfgs = append(cfgs,
		cfgCase{"luma-only", func(c *DarkConfig) { c.UseChroma = false }},
		cfgCase{"no-closing", func(c *DarkConfig) { c.UseClosing = false }},
		cfgCase{"f2-r2-luma-only-no-closing", func(c *DarkConfig) { c.Downsample, c.CloseRadius, c.UseChroma, c.UseClosing = 2, 2, false, false }},
		cfgCase{"narrow-band", func(c *DarkConfig) { c.LumaThresh, c.CrLow, c.CrHigh = 30, 140, 170 }})
	for _, fc := range frames {
		gray := img.RGBToGray(fc.frame)
		for ci, cc := range cfgs {
			if fc.frame.W >= 1000 && ci%4 != 0 {
				continue // the large frames run a quarter of the configurations
			}
			cfg := DefaultDarkConfig()
			cc.mut(&cfg)
			d := &DarkDetector{Cfg: cfg}
			want := oracleMask(cfg, fc.frame)
			bandCounts := []int{1, 2, 3, 7, want.H + 5}
			if testing.Short() || raceEnabled {
				bandCounts = []int{1, 3}
			}
			for _, bands := range bandCounts {
				if got := kernelMask(t, d, fc.frame, nil, bands); !sameBinary(got, want) {
					t.Fatalf("%s %s bands=%d (converted gray): mask differs from the composition", fc.name, cc.name, bands)
				}
				if got := kernelMask(t, d, fc.frame, gray, bands); !sameBinary(got, want) {
					t.Fatalf("%s %s bands=%d (caller gray): mask differs from the composition", fc.name, cc.name, bands)
				}
			}
			if got := d.Preprocess(fc.frame); !sameBinary(got, want) {
				t.Fatalf("%s %s: Preprocess differs from the composition", fc.name, cc.name)
			}
		}
	}
}

// TestScanLightsMatchesSerialReference pins the gated, pooled DBN
// sweep — lights and ScanStats — to the serial per-window reference
// at workers 1, 2 and NumCPU, over scene maps and random maps of every
// density, at strides 1-3, with map sizes below, at and above the
// window (stride 2 only under -short and -race).
func TestScanLightsMatchesSerialReference(t *testing.T) {
	base := quickDark(t, 1)
	rng := synth.NewRNG(73)
	var maps []*img.Binary
	for _, cond := range []synth.Condition{synth.Dark, synth.Dusk} {
		for _, sz := range [][2]int{{640, 360}, {333, 217}, {97, 61}} {
			sc := synth.RenderScene(synth.NewRNG(uint64(sz[1])), synth.DefaultSceneConfig(sz[0], sz[1], cond))
			maps = append(maps, oracleMask(base.Cfg, sc.Frame))
		}
	}
	for _, sz := range [][2]int{{9, 9}, {8, 40}, {40, 8}, {10, 11}, {61, 33}, {200, 120}} {
		for _, p := range []float64{0, 0.01, 0.1, 0.6, 1} {
			b := img.NewBinary(sz[0], sz[1])
			for i := range b.Pix {
				if rng.Float64() < p {
					b.Pix[i] = 1
				}
			}
			maps = append(maps, b)
		}
	}
	ctx := context.Background()
	hits := 0
	strides := []int{2, 1, 3}
	if testing.Short() || raceEnabled {
		strides = strides[:1]
	}
	for _, stride := range strides {
		d := *base
		d.Cfg.Stride = stride
		for mi, b := range maps {
			wantL, wantS := oracleScan(&d, b)
			hits += wantS.Hits
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				gotL, gotS, err := d.ScanLightsStatsCtx(ctx, b, workers)
				if err != nil {
					t.Fatal(err)
				}
				if gotS != wantS {
					t.Fatalf("stride %d map %d (%dx%d) workers %d: stats %+v, reference %+v", stride, mi, b.W, b.H, workers, gotS, wantS)
				}
				if !sameLights(gotL, wantL) {
					t.Fatalf("stride %d map %d (%dx%d) workers %d: lights %v, reference %v", stride, mi, b.W, b.H, workers, gotL, wantL)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no map produced a lamp hit; the comparison is vacuous")
	}
}

// sameLights compares light lists exactly, probabilities by bits.
func sameLights(a, b []Light) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Box != b[i].Box || a[i].Class != b[i].Class || math.Float64bits(a[i].Prob) != math.Float64bits(b[i].Prob) {
			return false
		}
	}
	return true
}

// TestDarkDetectMatchesComposition: the whole pipeline, through
// DetectCtx, DetectGrayCtx and DetectStackCtx at every worker count, returns the
// detections of the oracle composition — on the paper's 1080p frame
// with the width-derived factor, and on odd sizes at factor 1 and at
// factor 2 with radius 2. The 1080p and factor-2 cases are skipped
// under -short and -race.
func TestDarkDetectMatchesComposition(t *testing.T) {
	ctx := context.Background()
	total := 0
	cases := []struct {
		w, h, factor, radius int
		cond                 synth.Condition
	}{
		{640, 360, 1, 1, synth.Dark},
		{640, 360, 1, 1, synth.Dusk},
		{333, 217, 1, 0, synth.Dark},
		{1920, 1080, 0, 1, synth.Dark},
		{1001, 503, 2, 2, synth.Dark},
	}
	if testing.Short() || raceEnabled {
		cases = cases[:3]
	}
	st := NewFrameStack() // one stack across cases: its scratch is reused
	for _, c := range cases {
		d := quickDark(t, 1)
		d.Cfg.Downsample, d.Cfg.CloseRadius = c.factor, c.radius
		for seed := uint64(0); seed < 2; seed++ {
			sc := synth.RenderScene(synth.NewRNG(900+seed), synth.DefaultSceneConfig(c.w, c.h, c.cond))
			want := oracleDetect(d, sc.Frame)
			total += len(want)
			gray := img.RGBToGray(sc.Frame)
			for _, workers := range []int{1, 2, 3, runtime.NumCPU()} {
				got, err := d.DetectCtx(ctx, sc.Frame, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d %v seed %d workers %d: DetectCtx %v, composition %v", c.w, c.h, c.cond, seed, workers, got, want)
				}
				got, err = d.DetectGrayCtx(ctx, sc.Frame, gray, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d %v seed %d workers %d: DetectGrayCtx %v, composition %v", c.w, c.h, c.cond, seed, workers, got, want)
				}
				st.BeginRGB(sc.Frame, workers)
				got, err = d.DetectStackCtx(ctx, sc.Frame, st, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d %v seed %d workers %d: DetectStackCtx %v, composition %v", c.w, c.h, c.cond, seed, workers, got, want)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no case produced a detection; the comparison is vacuous")
	}
}

// TestDarkDetectBadFrame: malformed input is a wrapped ErrBadFrame
// from every entry point, never a panic; a well-formed frame too small
// for one DBN window is no detections and no error.
func TestDarkDetectBadFrame(t *testing.T) {
	d := quickDark(t, 1)
	ctx := context.Background()
	good := img.NewRGB(32, 24)
	short := &img.RGB{W: 32, H: 24, Pix: make([]uint8, 3*32*24-1)}
	long := &img.RGB{W: 32, H: 24, Pix: make([]uint8, 3*32*24+3)}
	for _, c := range []struct {
		name  string
		frame *img.RGB
		gray  *img.Gray
	}{
		{"nil frame", nil, nil},
		{"zero-size frame", &img.RGB{}, nil},
		{"zero-width frame", &img.RGB{W: 0, H: 4}, nil},
		{"negative-size frame", &img.RGB{W: -2, H: -3}, nil},
		{"short pixel buffer", short, nil},
		{"long pixel buffer", long, nil},
		{"nil pixel buffer", &img.RGB{W: 32, H: 24}, nil},
		{"gray narrower than frame", good, img.NewGray(31, 24)},
		{"gray taller than frame", good, img.NewGray(32, 25)},
		{"gray plane short", good, &img.Gray{W: 32, H: 24, Pix: make([]uint8, 32*23)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.gray == nil {
				if _, err := d.DetectCtx(ctx, c.frame, 2); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("DetectCtx error %v, want ErrBadFrame", err)
				}
			}
			if _, err := d.DetectGrayCtx(ctx, c.frame, c.gray, 2); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("DetectGrayCtx error %v, want ErrBadFrame", err)
			}
		})
	}
	if _, err := d.DetectStackCtx(ctx, good, NewFrameStack(), 2); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("DetectStackCtx over a stack with no open frame: error %v, want ErrBadFrame", err)
	}
	for _, sz := range [][2]int{{8, 8}, {1, 1}, {100, 8}, {8, 100}} {
		tiny := img.NewRGB(sz[0], sz[1])
		tiny.Fill(255, 0, 0)
		dets, err := d.DetectCtx(ctx, tiny, 2)
		if err != nil || len(dets) != 0 {
			t.Fatalf("%dx%d frame: %v, %v; want no detections and no error", sz[0], sz[1], dets, err)
		}
		dets, err = d.DetectGrayCtx(ctx, tiny, img.RGBToGray(tiny), 2)
		if err != nil || len(dets) != 0 {
			t.Fatalf("%dx%d frame (gray): %v, %v; want no detections and no error", sz[0], sz[1], dets, err)
		}
	}
}

// TestDarkDetectCancelled: a cancelled context stops the pipeline with
// the context's error at every stage's fan-out.
func TestDarkDetectCancelled(t *testing.T) {
	d := quickDark(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := synth.RenderScene(synth.NewRNG(5), synth.DefaultSceneConfig(1920, 1080, synth.Dark))
	for _, workers := range []int{1, 2} {
		if _, err := d.DetectCtx(ctx, sc.Frame, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: error %v, want context.Canceled", workers, err)
		}
	}
}

// FuzzTaillightMask drives the banded kernel against the composition
// with fuzzed frame sizes, pixel statistics, thresholds, factors,
// radii, flags and band counts.
func FuzzTaillightMask(f *testing.F) {
	f.Add(uint8(37), uint8(23), uint8(3), uint8(1), uint8(0b11), uint8(90), uint8(150), uint8(255), uint8(2), uint64(1), uint8(40))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(0b01), uint8(0), uint8(0), uint8(255), uint8(1), uint64(2), uint8(255))
	f.Add(uint8(64), uint8(9), uint8(6), uint8(2), uint8(0b10), uint8(200), uint8(120), uint8(160), uint8(5), uint64(3), uint8(128))
	f.Fuzz(func(t *testing.T, w, h, factor, radius, flags, luma, crLo, crHi, bands uint8, seed uint64, density uint8) {
		cfg := DefaultDarkConfig()
		cfg.Downsample = int(factor%8) + 1
		cfg.CloseRadius = int(radius % 4)
		cfg.UseChroma = flags&1 != 0
		cfg.UseClosing = flags&2 != 0
		cfg.LumaThresh, cfg.CrLow, cfg.CrHigh = luma, crLo, crHi
		rng := synth.NewRNG(seed)
		frame := sparseFrame(rng, int(w%96)+1, int(h%64)+1, float64(density)/255)
		if flags&4 != 0 {
			frame = noiseFrame(rng, frame.W, frame.H)
		}
		d := &DarkDetector{Cfg: cfg}
		want := oracleMask(cfg, frame)
		nb := int(bands%9) + 1
		if got := kernelMask(t, d, frame, nil, nb); !sameBinary(got, want) {
			t.Fatalf("%dx%d cfg %+v bands %d: converted-gray mask differs", frame.W, frame.H, cfg, nb)
		}
		if got := kernelMask(t, d, frame, img.RGBToGray(frame), nb); !sameBinary(got, want) {
			t.Fatalf("%dx%d cfg %+v bands %d: caller-gray mask differs", frame.W, frame.H, cfg, nb)
		}
	})
}

// TestDarkDetectConcurrentCallers: one detector serves every stream of
// an engine, so concurrent calls of mixed frame sizes share its pool of
// scratches; each must still return its own frame's detections.
func TestDarkDetectConcurrentCallers(t *testing.T) {
	d := quickDark(t, 1)
	ctx := context.Background()
	type job struct {
		frame *img.RGB
		gray  *img.Gray
		want  []Detection
	}
	var jobs []job
	for i, sz := range [][2]int{{640, 360}, {333, 217}, {97, 61}, {480, 270}} {
		sc := synth.RenderScene(synth.NewRNG(uint64(950+i)), synth.DefaultSceneConfig(sz[0], sz[1], synth.Dark))
		jobs = append(jobs, job{sc.Frame, img.RGBToGray(sc.Frame), oracleDetect(d, sc.Frame)})
	}
	const callers = 4
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			for r := 0; r < 3; r++ {
				for i := range jobs {
					j := jobs[(i+c)%len(jobs)]
					got, err := d.DetectCtx(ctx, j.frame, 2)
					if err == nil && !reflect.DeepEqual(got, j.want) {
						err = fmt.Errorf("caller %d: DetectCtx on %dx%d differs from the composition", c, j.frame.W, j.frame.H)
					}
					if err == nil {
						got, err = d.DetectGrayCtx(ctx, j.frame, j.gray, 2)
						if err == nil && !reflect.DeepEqual(got, j.want) {
							err = fmt.Errorf("caller %d: DetectGrayCtx on %dx%d differs from the composition", c, j.frame.W, j.frame.H)
						}
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
