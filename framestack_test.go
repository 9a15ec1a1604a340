package advdet

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"advdet/internal/img"
	"advdet/internal/synth"
)

// staticDrive renders a fixed roadside camera through a day → dusk →
// day → dark → day cycle: mostly unchanged frames, so a temporal stack
// runs warm, with two free day/dusk model selects and two partial
// reconfigurations.
func staticDrive(w, h int) []*Scene {
	segs := []struct {
		cond   Condition
		frames int
	}{{Day, 4}, {Dusk, 4}, {Day, 4}, {Dark, 4}, {Day, 4}}
	var out []*Scene
	i := 0
	for _, s := range segs {
		cam := synth.NewStaticHighway(7, w, h, s.cond, 3)
		for k := 0; k < s.frames; k++ {
			out = append(out, cam.Frame(i))
			i++
		}
	}
	return out
}

// TestSystemSharedStackDeterminism is the system-level table for the
// shared frame stack: every scan lane, with and without the temporal
// stack and image-based sensing, at workers {1, 2, NumCPU}, must
// produce the frame results of the serial float system with a cold
// stack — across day/dusk model selects that keep the stack warm and
// reconfigurations that must invalidate it.
func TestSystemSharedStackDeterminism(t *testing.T) {
	d := getDets(t)
	frames := staticDrive(160, 96)
	drive := func(opts ...Option) []FrameResult {
		sys, err := NewSystem(d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]FrameResult, len(frames))
		for i, sc := range frames {
			if out[i], err = sys.ProcessFrame(sc); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	want := drive(WithParallelism(1))
	vehicles := 0
	for _, r := range want {
		vehicles += len(r.Vehicles)
	}
	if vehicles == 0 {
		t.Fatal("reference drive detected no vehicle; the table would not see a regression")
	}
	// Image sensing classifies from the stack's gray conversion rather
	// than the scene's lux reading, so it has its own cold reference.
	wantSensed := drive(WithParallelism(1), WithSenseFromImage())
	for _, lane := range []struct {
		name   string
		opts   []Option
		sensed bool
	}{
		{"float", nil, false},
		{"quantized", []Option{WithQuantizedScan()}, false},
		{"temporal", []Option{WithTemporalCache()}, false},
		{"temporal-quantized", []Option{WithTemporalCache(), WithQuantizedScan()}, false},
		{"temporal-sensed", []Option{WithTemporalCache(), WithSenseFromImage()}, true},
	} {
		ref := want
		if lane.sensed {
			ref = wantSensed
		}
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			got := drive(append(lane.opts, WithParallelism(workers))...)
			for i := range ref {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Fatalf("%s workers=%d frame %d: %+v, want %+v", lane.name, workers, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestReconfigurationInvalidatesFrameStack: a temporal stack runs warm
// over a static camera, but the frame that requests a partial
// reconfiguration must rebuild it cold — no tile of that frame may be
// reused — and the stack warms up again afterwards. The stack's
// front-end stages are observed once per frame, dropped vehicle frames
// included.
func TestReconfigurationInvalidatesFrameStack(t *testing.T) {
	d := getDets(t)
	sys, err := NewSystem(d, WithTemporalCache(), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	tile := func(kind string) uint64 {
		c, _ := sys.Snapshot().TileByKind(kind)
		return c.Count
	}
	frames := staticDrive(160, 96)
	reconfigs := 0
	for i, sc := range frames {
		hits, refresh := tile("tile_hits"), tile("tile_refresh")
		res, err := sys.ProcessFrame(sc)
		if err != nil {
			t.Fatal(err)
		}
		hits, refresh = tile("tile_hits")-hits, tile("tile_refresh")-refresh
		switch {
		case res.ReconfigStarted:
			reconfigs++
			if hits != 0 || refresh == 0 {
				t.Fatalf("frame %d requested a reconfiguration but reused %d tiles (%d refreshed)", i, hits, refresh)
			}
		case i > 0 && frames[i-1].Cond == sc.Cond && hits == 0:
			t.Fatalf("frame %d of a static camera reused no tile", i)
		}
	}
	if reconfigs != 2 {
		t.Fatalf("drive requested %d reconfigurations, want 2", reconfigs)
	}
	snap := sys.Snapshot()
	for _, name := range []string{"scan-resize", "scan-feature", "scan-blocks", "scan-temporal"} {
		if st, _ := snap.StageByName(name); st.Count != uint64(len(frames)) {
			t.Fatalf("stage %q observed %d times over %d frames, want once per frame", name, st.Count, len(frames))
		}
	}
}

// TestMalformedFrameReturnsErrBadFrame: a scene that is not a frame —
// nil, a nil frame, a zero-size frame, a pixel buffer of the wrong
// length — is refused with ErrBadFrame by System.ProcessFrameCtx and
// Stream.Process alike, before it advances any state: the next valid
// frame's result is the one a system that never saw the bad input
// returns.
func TestMalformedFrameReturnsErrBadFrame(t *testing.T) {
	d := getDets(t)
	good := RenderScene(7, 160, 96, Day)
	bad := []*Scene{
		nil,
		{Lux: good.Lux},
		{Frame: &img.RGB{}, Lux: good.Lux},
		{Frame: &img.RGB{W: good.Frame.W, H: good.Frame.H, Pix: good.Frame.Pix[:100]}, Lux: good.Lux},
	}
	ref, err := NewSystem(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ProcessFrame(good)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(d)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(d)
	defer eng.Close()
	st, err := eng.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, sc := range bad {
		if _, err := sys.ProcessFrameCtx(ctx, sc); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bad scene %d: System.ProcessFrameCtx error %v, want ErrBadFrame", i, err)
		}
		if _, err := st.Process(ctx, sc); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bad scene %d: Stream.Process error %v, want ErrBadFrame", i, err)
		}
	}
	got, err := sys.ProcessFrameCtx(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("system after bad frames: %+v, want %+v", got, want)
	}
	if got, err = st.Process(ctx, good); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream after bad frames: %+v, want %+v", got, want)
	}
}
