package advdet

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"advdet/internal/pipeline"
)

// ledgerDrive pushes n frames of a day->dusk->dark->day drive through
// one stream and returns the frame results.
func ledgerDrive(t *testing.T, s *Stream, n int, seed uint64) []FrameResult {
	t.Helper()
	ctx := context.Background()
	seg := n / 4
	out := make([]FrameResult, 0, n)
	for i := 0; i < n; i++ {
		cond := Day
		lux := 10000.0
		switch {
		case i >= seg && i < 2*seg:
			cond, lux = Dusk, 300
		case i >= 2*seg && i < 3*seg:
			cond, lux = Dark, 5
		}
		sc := RenderScene(seed+uint64(i), 128, 72, cond)
		sc.Lux = lux
		r, err := s.Process(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// TestLedgerDeterministicAcrossWorkers is the event-order determinism
// table: with the ledger on, the per-stream hash chains (which commit
// to every event's bytes AND order) must be identical whether the
// fleet runs 1, 2 or NumCPU workers — and so must the detections the
// frame events summarize.
func TestLedgerDeterministicAcrossWorkers(t *testing.T) {
	d := getDets(t)
	const nStreams, nFrames = 2, 12
	type run struct {
		heads   map[int32]LedgerHash
		results [][]FrameResult
	}
	var ref run
	for wi, workers := range []int{1, 2, runtime.NumCPU()} {
		eng := NewEngine(d, WithFleetWorkers(workers), WithQueueDepth(64))
		var cur run
		cur.heads = map[int32]LedgerHash{}
		cur.results = make([][]FrameResult, nStreams)
		var wg sync.WaitGroup
		for si := 0; si < nStreams; si++ {
			s, err := eng.NewStream(WithStreamLedger())
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				cur.results[si] = ledgerDrive(t, s, nFrames, uint64(300+si))
			}(si)
		}
		wg.Wait()
		led := eng.Ledger()
		for _, id := range led.Streams() {
			h, _ := led.ChainHead(id)
			cur.heads[id] = h
			if got := led.ChainLen(id); got < nFrames {
				t.Fatalf("workers=%d stream %d chained %d events, want >= %d (one per frame)",
					workers, id, got, nFrames)
			}
		}
		eng.Close()
		if wi == 0 {
			ref = cur
			continue
		}
		if !reflect.DeepEqual(cur.heads, ref.heads) {
			t.Fatalf("workers=%d: chain heads differ from the single-worker run:\n got %v\nwant %v",
				workers, cur.heads, ref.heads)
		}
		if !reflect.DeepEqual(cur.results, ref.results) {
			t.Fatalf("workers=%d: frame results differ from the single-worker run", workers)
		}
	}
}

// TestDetectionsByteIdenticalWithLedger pins the zero-interference
// contract: enabling the ledger (and an event sink) must not change a
// single detection.
func TestDetectionsByteIdenticalWithLedger(t *testing.T) {
	d := getDets(t)
	drive := func(opts ...Option) []FrameResult {
		sys, err := NewSystem(d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var out []FrameResult
		for i := 0; i < 6; i++ {
			cond := Day
			if i >= 3 {
				cond = Dusk
			}
			sc := RenderScene(uint64(400+i), 160, 90, cond)
			r, err := sys.ProcessFrame(sc)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	plain := drive()
	led := NewLedger(LedgerConfig{})
	recorded := drive(WithLedger(led), WithEventSink(NewEventLog()))
	if !reflect.DeepEqual(plain, recorded) {
		t.Fatal("detections changed when the ledger was enabled")
	}
	if led.ChainLen(0) < len(recorded) {
		t.Fatalf("ledger chained %d events, want at least one per frame (%d)",
			led.ChainLen(0), len(recorded))
	}
}

// Per-layer allocation budgets of one steady-state 160x90 frame at
// two scan workers with the ledger on, each the measured count on
// go1.24.0 (the toolchain go.mod pins). A frame's budget is their sum,
// so a regression names the layer that grew.
const (
	// stackAllocBudget: BeginRGB's gray conversion into the stack's own
	// buffer plus the pyramid, feature-map and block-grid build both
	// sweeps read (par fan-out goroutines and their closures).
	stackAllocBudget = 23
	// vehicleSweepAllocBudget: the day model's window sweep over a built
	// stack, NMS included.
	vehicleSweepAllocBudget = 13
	// pedestrianSweepAllocBudget: the pedestrian window sweep over the
	// same stack, NMS included.
	pedestrianSweepAllocBudget = 9
	// adaptiveAllocBudget: the adaptive frame loop and the ledger feed
	// (reused encode buffer, arena-backed chain) without detection.
	adaptiveAllocBudget = 8
	// darkAllocBudget: the dark pipeline over the gray plane the frame
	// stack converted (DetectGrayCtx) of a dark frame with one lamp
	// pair, in its pooled scratch: the DBN-sweep fan-out, light merge,
	// pairing and NMS (the mask runs in one band at this size).
	darkAllocBudget = 10
)

// TestProcessFrameAllocsWithLedger is the hot-path alloc gate with the
// ledger enabled. Each layer of a steady-state frame is measured
// against its own budget, and the whole frame against their sum:
//
//   - the two sweeps, each over a stack already built this frame;
//   - the frame stack, as both sweeps over a freshly opened frame
//     minus the two sweeps alone;
//   - the adaptive loop and ledger, as the same system without
//     detection.
func TestProcessFrameAllocsWithLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	d := getDets(t)
	ctx := context.Background()
	const workers = 2
	sc := RenderScene(500, 160, 90, Day)
	allocs := func(f func()) int {
		// Warm the pools: first runs grow every buffer to steady state.
		for i := 0; i < 8; i++ {
			f()
		}
		return int(testing.AllocsPerRun(20, f))
	}
	sweep := func(st *pipeline.FrameStack, det interface {
		SweepCtx(context.Context, *pipeline.FrameStack, int, *pipeline.ScanTimings) ([]Detection, error)
	}) func() {
		return func() {
			if _, err := det.SweepCtx(ctx, st, workers, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := pipeline.NewFrameStack()
	vehicle, pedestrian := sweep(st, d.Day), sweep(st, d.Pedestrian)
	both := allocs(func() {
		st.BeginRGB(sc.Frame, workers)
		vehicle()
		pedestrian()
	})
	veh, ped := allocs(vehicle), allocs(pedestrian)
	frame := func(opts ...Option) func() {
		sys, err := NewSystem(d, append(opts, WithLedger(NewLedger(LedgerConfig{})), WithParallelism(workers))...)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := sys.ProcessFrame(sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range []struct {
		name   string
		got    int
		budget int
	}{
		{"frame stack", both - veh - ped, stackAllocBudget},
		{"vehicle sweep", veh, vehicleSweepAllocBudget},
		{"pedestrian sweep", ped, pedestrianSweepAllocBudget},
		{"adaptive+ledger", allocs(frame(WithTimingOnly())), adaptiveAllocBudget},
	} {
		if l.got > l.budget {
			t.Errorf("%s allocates %d objects per frame, budget %d", l.name, l.got, l.budget)
		}
	}
	const frameBudget = stackAllocBudget + vehicleSweepAllocBudget + pedestrianSweepAllocBudget + adaptiveAllocBudget
	if got := allocs(frame()); got > frameBudget {
		t.Fatalf("steady-state frame with ledger allocates %d objects, budget %d (sum of the layer budgets)", got, frameBudget)
	}
}

// TestDarkFrameAllocsWithLedger is the alloc gate's dark layer: the
// dark pipeline over a stack already converted this frame against its
// own budget, and a whole steady-state dark frame — one gray
// conversion, the dark pipeline, the pedestrian sweep over the same
// stack, adaptive loop and ledger — against the sum of its layers'.
func TestDarkFrameAllocsWithLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	d := getDets(t)
	ctx := context.Background()
	const workers = 2
	allocs := func(f func()) int {
		// Warm the pools: first runs grow every buffer to steady state.
		for i := 0; i < 8; i++ {
			f()
		}
		return int(testing.AllocsPerRun(20, f))
	}
	sc := RenderScene(500, 160, 90, Dark) // a lamp pair: pairing and NMS run
	sc.Lux = 5
	st := pipeline.NewFrameStack()
	gray := st.BeginRGB(sc.Frame, workers)
	var dets []Detection
	dark := allocs(func() {
		var err error
		if dets, err = d.Dark.DetectGrayCtx(ctx, sc.Frame, gray, workers); err != nil {
			t.Fatal(err)
		}
	})
	if len(dets) == 0 {
		t.Fatal("the dark scene yields no detection; the gate would skip pairing")
	}
	if dark > darkAllocBudget {
		t.Errorf("dark pipeline allocates %d objects per frame, budget %d", dark, darkAllocBudget)
	}
	sys, err := NewSystem(d, WithInitial(Dark), WithLedger(NewLedger(LedgerConfig{})), WithParallelism(workers))
	if err != nil {
		t.Fatal(err)
	}
	var res FrameResult
	got := allocs(func() {
		var err error
		if res, err = sys.ProcessFrame(sc); err != nil {
			t.Fatal(err)
		}
	})
	if res.Cond != Dark || res.VehicleDropped {
		t.Fatalf("frame ran as %v (vehicle dropped %v), want a steady dark frame", res.Cond, res.VehicleDropped)
	}
	const frameBudget = stackAllocBudget + darkAllocBudget + pedestrianSweepAllocBudget + adaptiveAllocBudget
	if got > frameBudget {
		t.Fatalf("steady-state dark frame with ledger allocates %d objects, budget %d (sum of the layer budgets)", got, frameBudget)
	}
}

// TestStatsCopyNoAliasing: the slices inside a Stats snapshot must be
// copies — callers mutating a snapshot cannot corrupt the system's own
// records (or a later snapshot).
func TestStatsCopyNoAliasing(t *testing.T) {
	plan := NewFaultPlan(42).CorruptStage("dark", 1)
	sys, err := NewSystem(Detectors{}, WithTimingOnly(), WithInitial(Dusk), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		sc := RenderScene(uint64(600+i), 64, 36, Dark)
		sc.Lux = 5
		if _, err := sys.ProcessFrame(sc); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if len(st.FaultLog) == 0 || len(st.Reconfigs) == 0 {
		t.Fatalf("drive produced no fault/reconfig records (%d, %d)", len(st.FaultLog), len(st.Reconfigs))
	}
	st.FaultLog[0].Err = nil
	st.FaultLog[0].Attempt = 999
	st.Reconfigs[0].Attempts = 999
	fresh := sys.Stats()
	if fresh.FaultLog[0].Err == nil || fresh.FaultLog[0].Attempt == 999 {
		t.Fatal("mutating a Stats snapshot corrupted the system's fault log")
	}
	if fresh.Reconfigs[0].Attempts == 999 {
		t.Fatal("mutating a Stats snapshot corrupted the system's reconfig records")
	}
}

// TestFaultPlanEventsCopy: the injected-fault journal handed out by
// Plan.Events must be a copy for the same reason.
func TestFaultPlanEventsCopy(t *testing.T) {
	plan := NewFaultPlan(42).CorruptStage("dark", 1)
	sys, err := NewSystem(Detectors{}, WithTimingOnly(), WithInitial(Dusk), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		sc := RenderScene(uint64(700+i), 64, 36, Dark)
		sc.Lux = 5
		if _, err := sys.ProcessFrame(sc); err != nil {
			t.Fatal(err)
		}
	}
	evs := plan.Events()
	if len(evs) == 0 {
		t.Fatal("no injected faults recorded")
	}
	saved := evs[0]
	evs[0].Site = saved.Site + 100
	evs[0].Key = "tampered"
	fresh := plan.Events()
	if fresh[0] != saved {
		t.Fatal("mutating Plan.Events()'s return corrupted the plan's journal")
	}
}

// TestEngineMultiStreamLedgerE2E is the full loop at the API surface:
// several fault-injected streams chain into one engine ledger, the
// engine Close seals the tail, and the serialized log verifies —
// chains, roots, anchor and proofs.
func TestEngineMultiStreamLedgerE2E(t *testing.T) {
	eng := NewEngine(Detectors{}, WithQueueDepth(64))
	if eng.Ledger() != nil {
		t.Fatal("engine reports a ledger before any stream enrolled")
	}
	const nStreams = 3
	var wg sync.WaitGroup
	for i := 0; i < nStreams; i++ {
		plan := NewFaultPlan(uint64(80+i)).CorruptStage("dark", 1)
		s, err := eng.NewStream(
			WithStreamTimingOnly(),
			WithStreamInitial(Dusk),
			WithStreamFaultPlan(plan),
			WithStreamLedger(),
		)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			ctx := context.Background()
			for j := 0; j < 40; j++ {
				sc := RenderScene(seed+uint64(j), 64, 36, Dark)
				sc.Lux = 5
				if _, err := s.Process(ctx, sc); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(800 + 100*i))
	}
	wg.Wait()
	led := eng.Ledger()
	if led == nil {
		t.Fatal("no engine ledger after streams enrolled")
	}
	eng.Close() // joins the sealer, which seals the tail batch
	if led.OpenLeaves() != 0 {
		t.Fatalf("engine Close left %d unsealed events", led.OpenLeaves())
	}
	if got := len(led.Streams()); got != nStreams {
		t.Fatalf("ledger holds %d chains, want %d", got, nStreams)
	}

	var buf bytes.Buffer
	if _, err := led.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadLedgerLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyLedgerLog(lg)
	if !rep.OK {
		t.Fatalf("recorded drive failed verification: %+v", rep)
	}
	events, batches := led.Counts()
	if rep.Events != int(events) || rep.Batches != int(batches) {
		t.Fatalf("report counts (%d, %d) disagree with the ledger (%d, %d)",
			rep.Events, rep.Batches, events, batches)
	}
	// Every batch's first leaf proves inclusion from the recorded bytes.
	for bi := range lg.Batches {
		proof, err := lg.Prove(bi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !proof.Verify(lg.Batches[bi].Root) {
			t.Fatalf("batch %d inclusion proof does not verify", bi)
		}
	}
	// And a flipped byte no longer verifies.
	lg.Streams[0].Payloads[0][0] ^= 1
	if rep := VerifyLedgerLog(lg); rep.OK {
		t.Fatal("tampered recording still verifies")
	}
}
