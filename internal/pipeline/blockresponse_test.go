package pipeline

import (
	"context"
	"math"
	"runtime"
	"testing"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/synth"
)

// scanLane is one scoring lane of a sweep: the float response-plane or
// the quantized on-demand datapath.
type scanLane struct{ quant bool }

// scanLanes is every lane a sweep runs. The equivalence tests check
// each of them against one oracle, hogOracle.
var scanLanes = []scanLane{{false}, {true}}

func (l scanLane) String() string {
	if l.quant {
		return "quantized"
	}
	return "early" // the float lane, named for its scorer before response planes
}

// config is the lane's ScanConfig.
func (l scanLane) config() ScanConfig { return ScanConfig{Quantized: l.quant} }

// hogOracle is the serial reference every sweep lane is checked
// against: scanPyramid scoring each window with Model.Margin over its
// full HOG descriptor, assembled from its level's feature map (per-crop
// Cfg.Extract where the window leaves the cell grid). No block grid,
// block model or frame stack is involved, so the sweep's scores agree
// with it to float reassociation (~1e-9 relative) and its boxes
// exactly.
func hogOracle(s windowSweep, g *img.Gray) []Detection {
	var level *img.Gray
	var fm *hog.FeatureMap
	return scanPyramid(g, s.WinW, s.WinH, s.Stride, s.Scale, s.Thresh, func(l *img.Gray, r img.Rect) float64 {
		if l != level {
			level, fm = l, s.Cfg.NewFeatureMap(l)
		}
		desc := fm.Descriptor(r.X0, r.Y0, s.WinW, s.WinH, nil)
		if desc == nil {
			desc = s.Cfg.Extract(l.SubImage(r))
		}
		return s.Model.Margin(desc)
	}, s.Kind)
}

// scanCase is one HOG detector kind over a frame it fires on.
type scanCase struct {
	name  string
	frame *img.Gray
	sweep windowSweep // the detector's sweep; its ScanConfig is set per scan
	nms   float64
}

// scan runs the detector's DetectCtx path with the given scan
// configuration.
func (c scanCase) scan(t *testing.T, workers int, cfg ScanConfig) []Detection {
	t.Helper()
	s := c.sweep
	s.ScanConfig = cfg
	dets, err := detectOnce(context.Background(), cfg.Temporal, c.frame, workers, nil, s, c.nms, c.name)
	if err != nil {
		t.Fatal(err)
	}
	return dets
}

// oracle is scan's reference: hogOracle plus the detector's NMS.
func (c scanCase) oracle(cfg ScanConfig) []Detection {
	s := c.sweep
	s.ScanConfig = cfg
	return NMS(hogOracle(s, c.frame), c.nms)
}

// scanCases covers all four HOG scan kinds of the system: day and dusk
// vehicles, pedestrians, animals.
func scanCases(t *testing.T) []scanCase {
	t.Helper()
	day := NewDayDuskDetector(trainSmall(t, synth.DayDataset(700, 64, 64, 50, 50)))
	dusk := NewDayDuskDetector(trainSmall(t, synth.DuskDataset(701, 64, 64, 50, 50, 0)))
	dusk.DetectThresh = -0.25 // loosen so the scene yields detections to compare
	ped := trainPed(t, 702)
	ped.DetectThresh = -0.25
	animal := trainAnimal(t, 705)
	dayFrame := scanScene(710, 320, 200)
	duskFrame := img.RGBToGray(synth.RenderScene(synth.NewRNG(711),
		synth.SceneConfig{W: 320, H: 200, Cond: synth.Dusk, NumVehicles: 2}).Frame)
	return []scanCase{
		{"day", dayFrame, day.sweep(), day.NMSIoU},
		{"dusk", duskFrame, dusk.sweep(), dusk.NMSIoU},
		{"pedestrian", dayFrame, ped.sweep(), ped.NMSIoU},
		{"animal", dayFrame, animal.sweep(), animal.NMSIoU},
	}
}

// blockMargins is the sweep's exact reference: the WindowMargin over
// the frame stack's block grids of every window the sweep scores —
// every anchor of every level — that clears the threshold, in
// level-major raster order.
func blockMargins(t *testing.T, s windowSweep, g *img.Gray) []float64 {
	t.Helper()
	st := NewFrameStack()
	st.Begin(g)
	if _, err := s.run(context.Background(), st, &st.scan, 1, nil); err != nil {
		t.Fatal(err)
	}
	m, err := st.model(s)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for i, lat := range st.scan.lats {
		for ay := 0; ay < lat.NAY; ay++ {
			for ax := 0; ax < lat.NAX; ax++ {
				if margin := m.bm.WindowMargin(st.grids[i].Data(), lat, ax, ay); margin > s.Thresh {
					out = append(out, margin)
				}
			}
		}
	}
	return out
}

// TestBlockResponseMatchesDescriptorPath is the sweep's acceptance
// gate: for every scan kind, lane and worker count, the block-response
// sweep must produce the oracle's detections — identical boxes, kinds
// and count, with scores within 1e-9 relative (the two sum the same
// products in different order). Before NMS, every lane must also
// accept exactly the windows whose WindowMargin clears the threshold,
// with that margin bit for bit (blockMargins): the response planes sum
// the same dots in the same order, and the quantized lane re-scores
// everything it does not reject in float.
func TestBlockResponseMatchesDescriptorPath(t *testing.T) {
	ctx := context.Background()
	for _, tc := range scanCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, lane := range scanLanes {
				ref := tc.oracle(lane.config())
				if len(ref) == 0 {
					t.Fatalf("%s: oracle found nothing; scene too easy to miss a regression", tc.name)
				}
				s := tc.sweep
				s.ScanConfig = lane.config()
				exact := blockMargins(t, s, tc.frame)
				st := NewFrameStack()
				for _, workers := range []int{1, 2, runtime.NumCPU()} {
					st.Begin(tc.frame)
					all, err := sweepDets(ctx, s, st, workers)
					if err != nil {
						t.Fatal(err)
					}
					if len(all) != len(exact) {
						t.Fatalf("%s workers=%d: sweep accepted %d windows, WindowMargin %d", lane, workers, len(all), len(exact))
					}
					for i, d := range all {
						if math.Float64bits(d.Score) != math.Float64bits(exact[i]) {
							t.Fatalf("%s workers=%d: window %d scored %v, WindowMargin %v", lane, workers, i, d.Score, exact[i])
						}
					}
					got := tc.scan(t, workers, lane.config())
					if len(got) != len(ref) {
						t.Fatalf("%s workers=%d: %d detections, want %d", lane, workers, len(got), len(ref))
					}
					for i := range ref {
						if got[i].Box != ref[i].Box || got[i].Kind != ref[i].Kind {
							t.Fatalf("%s workers=%d: detection %d = %+v, want %+v", lane, workers, i, got[i], ref[i])
						}
						d := math.Abs(got[i].Score - ref[i].Score)
						scale := math.Max(math.Abs(ref[i].Score), 1)
						if d/scale > 1e-9 {
							t.Fatalf("%s workers=%d: detection %d score %v, want %v (rel %g)",
								lane, workers, i, got[i].Score, ref[i].Score, d/scale)
						}
					}
				}
			}
		})
	}
}

// TestPlaneBandsMatchWindowMargin covers what the small scenes of
// TestBlockResponseMatchesDescriptorPath cannot: a frame tall enough
// that the bottom pyramid levels split into several plane bands, so
// workers start bands mid-level, refill the block rows bands share and
// wrap their plane rings many times. Every accepted window must still
// carry its WindowMargin bit for bit, at every worker count.
func TestPlaneBandsMatchWindowMargin(t *testing.T) {
	day := NewDayDuskDetector(trainSmall(t, synth.DayDataset(740, 64, 64, 40, 40)))
	day.DetectThresh = -0.5
	ped := trainPed(t, 741)
	ped.DetectThresh = -0.5
	frame := scanScene(742, 256, 720)
	ctx := context.Background()
	for _, sw := range []windowSweep{day.sweep(), ped.sweep()} {
		if nay := scanPositions(frame.H, sw.WinH, sw.Stride); nay <= planeBandBlockRows*sw.Cfg.CellSize/sw.Stride {
			t.Fatalf("%v: %d window rows fit one band; the frame no longer splits levels", sw.Kind, nay)
		}
		exact := blockMargins(t, sw, frame)
		if len(exact) == 0 {
			t.Fatalf("%v: no window clears the threshold", sw.Kind)
		}
		st := NewFrameStack()
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			st.Begin(frame)
			all, err := sweepDets(ctx, sw, st, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(exact) {
				t.Fatalf("%v workers=%d: sweep accepted %d windows, WindowMargin %d", sw.Kind, workers, len(all), len(exact))
			}
			for i, d := range all {
				if math.Float64bits(d.Score) != math.Float64bits(exact[i]) {
					t.Fatalf("%v workers=%d: window %d scored %v, WindowMargin %v", sw.Kind, workers, i, d.Score, exact[i])
				}
			}
		}
	}
}

// TestScanSteadyStateAllocs pins the scratch pool's payoff: after
// warm-up, a full scan allocates only a small frame-constant amount
// (closures, pyramid geometry, NMS, the detection output) — no
// per-window or per-level buffers. The bound has headroom for
// allocator noise but sits below one allocation per window row
// (~60 rows on this frame), so a reintroduced per-row or per-window
// make() trips it.
func TestScanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	base := NewDayDuskDetector(trainSmall(t, synth.DayDataset(720, 64, 64, 40, 40)))
	g := scanScene(721, 320, 200)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		set  func(d *DayDuskDetector)
	}{
		{"early", func(d *DayDuskDetector) {}},
		{"quantized", func(d *DayDuskDetector) { d.Quantized = true }},
		{"temporal", func(d *DayDuskDetector) { d.Temporal = NewTemporalCache() }},
		{"temporal-quantized", func(d *DayDuskDetector) { d.Temporal = NewTemporalCache(); d.Quantized = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det := *base
			tc.set(&det)
			// Warm the pool: first frame grows every buffer to steady
			// state.
			if _, err := det.DetectCtx(ctx, g, 1); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := det.DetectCtx(ctx, g, 1); err != nil {
					t.Fatal(err)
				}
			})
			const maxAllocs = 40
			if allocs > maxAllocs {
				t.Fatalf("steady-state scan allocates %.0f objects/frame, want <= %d", allocs, maxAllocs)
			}
		})
	}
}

// TestScanTimingsReported checks DetectTimedCtx fills every stage.
func TestScanTimingsReported(t *testing.T) {
	det := NewDayDuskDetector(trainSmall(t, synth.DayDataset(730, 64, 64, 40, 40)))
	g := scanScene(731, 256, 160)
	var tm ScanTimings
	if _, err := det.DetectTimedCtx(context.Background(), g, 1, &tm); err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct {
		name string
		d    float64
	}{
		{"resize", tm.Resize.Seconds()},
		{"feature", tm.Feature.Seconds()},
		{"blocks", tm.Blocks.Seconds()},
		{"response", tm.Response.Seconds()},
		{"windows", tm.Windows.Seconds()},
	} {
		if st.d <= 0 {
			t.Fatalf("stage %s reported no wall time", st.name)
		}
	}
}
