package advdet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"advdet/internal/fleet"
)

// fleetScenes renders the drive the fleet tests replay on every
// stream: day -> dusk -> dark and back, exercising the model select
// and both reconfiguration directions. Scenes are read-only during
// processing, so concurrent streams share them.
func fleetScenes(t *testing.T) []*Scene {
	t.Helper()
	conds := []Condition{Day, Day, Dusk, Dark, Dark, Day}
	out := make([]*Scene, len(conds))
	for i, c := range conds {
		out[i] = RenderScene(uint64(300+i), 320, 180, c)
	}
	return out
}

// TestFleetDeterminismTable is the acceptance table: the same drive
// through 1 standalone stream vs. 8 concurrent streams on one shared
// Engine yields byte-identical per-stream FrameResults, at engine
// worker counts {1, 2, NumCPU}.
func TestFleetDeterminismTable(t *testing.T) {
	d := getDets(t)
	scenes := fleetScenes(t)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			// Reference: one standalone single-stream run.
			sys, err := NewSystem(d, WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]FrameResult, 0, len(scenes))
			for _, sc := range scenes {
				res, err := sys.ProcessFrame(sc)
				if err != nil {
					t.Fatal(err)
				}
				ref = append(ref, res)
			}

			// Fleet: 8 concurrent streams on one shared engine.
			const streams = 8
			eng := NewEngine(d,
				WithEngineParallelism(workers),
				WithQueueDepth(2*streams))
			defer eng.Close()
			got := make([][]FrameResult, streams)
			var wg sync.WaitGroup
			wg.Add(streams)
			for i := 0; i < streams; i++ {
				st, err := eng.NewStream(
					WithStreamName(fmt.Sprintf("cam-%d", i)),
					WithStreamParallelism(workers))
				if err != nil {
					t.Fatal(err)
				}
				go func(i int, st *Stream) {
					defer wg.Done()
					for _, sc := range scenes {
						res, err := st.Process(context.Background(), sc)
						if err != nil {
							t.Errorf("stream %d: %v", i, err)
							return
						}
						got[i] = append(got[i], res)
					}
				}(i, st)
			}
			wg.Wait()
			for i := 0; i < streams; i++ {
				if !reflect.DeepEqual(got[i], ref) {
					t.Fatalf("workers=%d stream %d diverged from the standalone run:\n got %+v\nwant %+v",
						workers, i, got[i], ref)
				}
			}
		})
	}
}

func TestStreamProcessPreCancelledCtxNeverAdmits(t *testing.T) {
	eng := NewEngine(getDets(t))
	defer eng.Close()
	st, err := eng.NewStream(WithStreamTimingOnly())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = st.Process(ctx, RenderScene(310, 320, 180, Day))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled Process took %v; admission must fail fast", elapsed)
	}
	if stats := eng.FleetStats(); stats.Admitted != 0 {
		t.Fatalf("pre-cancelled frame was admitted: %+v", stats)
	}
}

// The sentinels are the internal/fleet identities, so errors wrapped
// at any layer match with errors.Is.
func TestFleetSentinelIdentities(t *testing.T) {
	if !errors.Is(ErrOverloaded, fleet.ErrOverloaded) ||
		!errors.Is(ErrStreamClosed, fleet.ErrStreamClosed) ||
		!errors.Is(ErrEngineClosed, fleet.ErrClosed) {
		t.Fatal("root sentinels are not the fleet identities")
	}
}

func TestStreamCloseAndEngineCloseErrors(t *testing.T) {
	eng := NewEngine(getDets(t))
	st, err := eng.NewStream(WithStreamTimingOnly(), WithStreamMetrics())
	if err != nil {
		t.Fatal(err)
	}
	other, err := eng.NewStream(WithStreamTimingOnly())
	if err != nil {
		t.Fatal(err)
	}
	sc := RenderScene(311, 320, 180, Day)
	if _, err := st.Process(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if snap := eng.FleetSnapshot(); snap.ActiveStreams != 2 {
		t.Fatalf("active streams %d, want 2", snap.ActiveStreams)
	}
	st.Close()
	st.Close() // idempotent
	if _, err := st.Process(context.Background(), sc); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("closed-stream err = %v, want ErrStreamClosed", err)
	}
	if snap := eng.FleetSnapshot(); snap.ActiveStreams != 1 {
		t.Fatalf("closed stream still active in rollup: %+v", snap)
	}
	// The sibling stream is unaffected by the close.
	if _, err := other.Process(context.Background(), sc); err != nil {
		t.Fatalf("sibling stream after close: %v", err)
	}
	eng.Close()
	if _, err := other.Process(context.Background(), sc); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("closed-engine err = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.NewStream(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("NewStream on closed engine err = %v, want ErrEngineClosed", err)
	}
}

// gateSink parks the frame that first emits into it until gate is
// closed. Sinks run synchronously inside the frame, so the parked frame
// keeps its executor slot busy.
type gateSink struct {
	entered, gate chan struct{}
	once          sync.Once
}

func (g *gateSink) Emit(Event) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
}

// TestFleetOverloadShedsGracefully drives more concurrent frames than
// the deliberately tiny engine can admit: the excess must fail fast
// with ErrOverloaded (never deadlock), and admitted frames must still
// complete once their submitters' contexts resolve.
func TestFleetOverloadShedsGracefully(t *testing.T) {
	d := getDets(t)
	// One executor slot and an admission bound of one. A holder
	// stream's frame parks in its event sink, keeping the slot busy;
	// the first other frame admitted waits for that slot, holding the
	// whole bound, so every other frame is shed.
	eng := NewEngine(d,
		WithFleetWorkers(1),
		WithQueueDepth(1))
	sink := &gateSink{entered: make(chan struct{}), gate: make(chan struct{})}
	holder, err := eng.NewStream(
		WithStreamName("over-holder"),
		WithStreamTimingOnly(),
		WithStreamEventSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	holderErr := make(chan error, 1)
	go func() {
		_, err := holder.Process(context.Background(), RenderScene(311, 160, 90, Day))
		holderErr <- err
	}()
	select {
	case <-sink.entered:
	case err := <-holderErr:
		t.Fatalf("holder frame finished without parking in its sink: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("holder frame never reached its sink")
	}

	const streams = 6
	ctx, cancel := context.WithCancel(context.Background())
	var overloaded, cancelled, completed int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(streams)
	for i := 0; i < streams; i++ {
		st, err := eng.NewStream(
			WithStreamName(fmt.Sprintf("over-%d", i)),
			WithStreamTimingOnly())
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer wg.Done()
			_, err := st.Process(ctx, RenderScene(312, 160, 90, Day))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
			case errors.Is(err, ErrOverloaded):
				overloaded++
			case errors.Is(err, context.Canceled):
				cancelled++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	// Overload rejections are immediate; wait for all of them, then
	// release the waiting admission by cancelling and the holder by
	// opening its sink.
	for deadline := time.Now().Add(5 * time.Second); ; {
		mu.Lock()
		n := overloaded
		mu.Unlock()
		if n == streams-1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	close(sink.gate)
	if err := <-holderErr; err != nil {
		t.Fatalf("holder frame: %v", err)
	}
	eng.Close() // must not deadlock after an abandoned wait
	if overloaded == 0 {
		t.Fatalf("no frame was shed with ErrOverloaded (completed=%d cancelled=%d)", completed, cancelled)
	}
	if overloaded != streams-1 || cancelled != 1 {
		t.Fatalf("overloaded=%d cancelled=%d completed=%d, want %d shed and the one admitted frame cancelled",
			overloaded, cancelled, completed, streams-1)
	}
	if overloaded+cancelled+completed != streams {
		t.Fatalf("accounted for %d of %d frames", overloaded+cancelled+completed, streams)
	}
}

// TestManyStreamSoak runs 32 concurrent timing-only streams over one
// engine — the -race lane's workload. Timing-only streams skip the
// scan path, so this exercises the dispatcher, the per-stream
// simulations and the metrics rollup at fleet scale.
func TestManyStreamSoak(t *testing.T) {
	const streams = 32
	const frames = 25
	const fps = 50
	d := getDets(t)
	eng := NewEngine(d, WithQueueDepth(2*streams))
	defer eng.Close()
	scenes := fleetScenes(t)
	var wg sync.WaitGroup
	wg.Add(streams)
	for i := 0; i < streams; i++ {
		st, err := eng.NewStream(
			WithStreamName(fmt.Sprintf("soak-%d", i)),
			WithStreamFPS(fps),
			WithStreamTimingOnly(),
			WithStreamMetrics())
		if err != nil {
			t.Fatal(err)
		}
		go func(i int, st *Stream) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				if _, err := st.Process(context.Background(), scenes[f%len(scenes)]); err != nil {
					t.Errorf("stream %d frame %d: %v", i, f, err)
					return
				}
			}
		}(i, st)
	}
	wg.Wait()
	stats := eng.FleetStats()
	if stats.Admitted != streams*frames || stats.Executed != streams*frames {
		t.Fatalf("dispatcher stats %+v, want %d admitted+executed", stats, streams*frames)
	}
	if stats.Rejected != 0 {
		t.Fatalf("%d frames rejected despite a queue sized for the fleet", stats.Rejected)
	}
	snap := eng.FleetSnapshot()
	if snap.ActiveStreams != streams {
		t.Fatalf("active streams %d, want %d", snap.ActiveStreams, streams)
	}
	if snap.Frames != streams*frames {
		t.Fatalf("rollup frames %d, want %d", snap.Frames, streams*frames)
	}
	// The modeled hardware meets every slot at this frame size, so the
	// capacity rollup is exactly streams × fps.
	if snap.DeadlineMisses != 0 || snap.CapacityStreamsFPS != streams*fps {
		t.Fatalf("capacity %g streams×fps with %d deadline misses, want %d with none",
			snap.CapacityStreamsFPS, snap.DeadlineMisses, streams*fps)
	}
	for i := 0; i < streams; i++ {
		row, ok := snap.StreamByName(fmt.Sprintf("soak-%d", i))
		if !ok || row.Frames != frames {
			t.Fatalf("stream %d rollup row %+v ok=%v, want %d frames", i, row, ok, frames)
		}
		if row.DeadlineHits+row.DeadlineMisses != frames {
			t.Fatalf("stream %d deadline accounting %+v does not cover its frames", i, row)
		}
	}
}

// TestStreamRunScenarioMatchesSystem replays a scenario through a
// Stream and through the classic System: same results, and the
// stream's dispatch-stage telemetry records one trip per frame.
func TestStreamRunScenarioMatchesSystem(t *testing.T) {
	d := getDets(t)
	scn := TunnelTransit(7, 160, 90, 10)
	sys, err := NewSystem(d, WithFPS(10), WithTimingOnly())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.RunScenario(scn)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(d)
	defer eng.Close()
	st, err := eng.NewStream(WithStreamFPS(10), WithStreamTimingOnly(), WithStreamMetrics())
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.RunScenario(context.Background(), TunnelTransit(7, 160, 90, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream scenario run diverged from system run")
	}
	snap := st.Snapshot()
	row, ok := snap.StageByName("fleet-dispatch")
	if !ok || row.Count != uint64(len(got)) {
		t.Fatalf("fleet-dispatch stage row %+v ok=%v, want count %d", row, ok, len(got))
	}
}
