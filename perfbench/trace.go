package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"advdet"
	"advdet/internal/fleet"
	"advdet/internal/img"
	"advdet/internal/metrics"
	"advdet/internal/par"
	"advdet/internal/pipeline"
	"advdet/internal/synth"
	"advdet/internal/track"
)

// layer indexes the spans of a traced frame. The spans partition the
// frame: their sum plus the unattributed remainder is the whole
// Dispatcher.Submit call.
type layer int

const (
	lyDispatch layer = iota // Submit outside the run: admission, batching, hand-off
	lyLanes                 // scan-lane grant and release on the engine pool
	lyAdaptive              // timing-only ProcessFrameCtx, cache invalidation, metrics
	lyGray                  // img.RGBToGray conversions
	lyVehicle               // day/dusk HOG vehicle scan
	lyPed                   // HOG pedestrian scan
	lyDark                  // dark taillight pipeline
	lyTrack                 // tracker update
	nLayers
)

// layerMetricNames are the per-layer metrics each layer's spans feed:
// time and heap objects per frame.
var layerMetricNames = [nLayers]struct{ ms, allocs string }{
	lyDispatch: {"fleet.dispatch_ms", "fleet.dispatch.allocs"},
	lyLanes:    {"fleet.lanes_ms", "fleet.lanes.allocs"},
	lyAdaptive: {"adaptive.frame_ms", "adaptive.allocs"},
	lyGray:     {"img.gray_ms", "img.gray.allocs"},
	lyVehicle:  {"scan.vehicle.total_ms", "scan.vehicle.allocs"},
	lyPed:      {"scan.ped.total_ms", "scan.ped.allocs"},
	lyDark:     {"dark.total_ms", "dark.allocs"},
	lyTrack:    {"track.update_ms", "track.allocs"},
}

// tracedFrame is the in-memory trace of one frame: a span and a heap
// object count per layer, the scan stage timings and the counts taken
// at the same boundaries.
type tracedFrame struct {
	cam int
	// total is the Submit call; run is the work function inside it.
	total, run             time.Duration
	totalAllocs, runAllocs uint64
	queueWait, execRun     time.Duration // the dispatcher's own stamps
	dur                    [nLayers]time.Duration
	allocs                 [nLayers]uint64
	grant                  int
	grayCalls              int
	veh, ped               pipeline.ScanTimings
	vehScan                bool
	vehDets, pedDets       int
	// The dark pipeline runs whole inside the frame; probes after the
	// frame split it into preprocess, DBN sweep and pairing.
	darkRan                       bool
	darkPre, darkLights, darkPair time.Duration
	darkStats                     pipeline.ScanStats
	events                        int64
	ledEvents, ledBatches         uint64
}

// camTracer is one camera's traced path: a timing-only stream System
// (the adaptive layer) plus the detectors, gray conversions and
// tracker its frames would run, called one by one so each gets a span.
type camTracer struct {
	stream *advdet.Stream
	sys    *advdet.System
	pool   *par.Pool
	lanes  int
	day    *pipeline.DayDuskDetector
	dusk   *pipeline.DayDuskDetector
	ped    *pipeline.PedestrianDetector
	dark   *pipeline.DarkDetector
	tr     *track.Tracker
	events eventCounter
	ms     runtime.MemStats
	frames []tracedFrame
}

// tracer rebuilds each frame from the public calls
// System.ProcessFrameCtx makes, inside a fleet.Dispatcher.Submit.
type tracer struct {
	eng  *advdet.Engine
	disp *fleet.Dispatcher
	// mu serializes traced frames, so the process-wide heap counters
	// read around a span count that span's allocations only.
	mu   sync.Mutex
	cams []*camTracer
}

func newTracer(w *workload, r *rig) (*tracer, error) {
	t := &tracer{eng: r.eng, disp: fleet.NewDispatcher(fleet.Config{})}
	for cam := 0; cam < w.cameras; cam++ {
		c := &camTracer{dark: r.dets.Dark}
		opts := w.streamOptions(&c.events)
		if !w.profile {
			opts = append(opts, advdet.WithStreamEventSink(&c.events))
		}
		st, err := r.eng.NewStream(append(opts, advdet.WithStreamTimingOnly())...)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("open traced stream %d: %w", cam, err)
		}
		c.stream, c.sys = st, st.System()
		c.pool, c.lanes = c.sys.Engine().Pool(), par.Workers(c.sys.Opt.Parallelism)
		// Each camera gets its own scan detectors with the stream's scan
		// options, as the stream's own System would.
		day, dusk, ped := *r.dets.Day, *r.dets.Dusk, *r.dets.Pedestrian
		c.day, c.dusk, c.ped = &day, &dusk, &ped
		for _, o := range []*bool{&day.Quantized, &dusk.Quantized, &ped.Quantized} {
			*o = c.sys.Opt.ScanQuantized
		}
		if c.sys.Opt.ScanTemporalCache {
			day.Temporal, dusk.Temporal, ped.Temporal =
				pipeline.NewTemporalCache(), pipeline.NewTemporalCache(), pipeline.NewTemporalCache()
		}
		if w.profile {
			c.tr = track.NewTracker(track.DefaultConfig())
		}
		c.frames = make([]tracedFrame, 0, 1024)
		t.cams = append(t.cams, c)
	}
	return t, nil
}

func (t *tracer) streams() []*advdet.Stream {
	out := make([]*advdet.Stream, len(t.cams))
	for i, c := range t.cams {
		out[i] = c.stream
	}
	return out
}

func (t *tracer) close() {
	t.disp.Close()
	for _, c := range t.cams {
		c.stream.Close()
	}
}

// mark is a span start: wall time and the process's heap object count.
type mark struct {
	at      time.Time
	mallocs uint64
}

func (c *camTracer) begin() mark {
	runtime.ReadMemStats(&c.ms)
	return mark{at: time.Now(), mallocs: c.ms.Mallocs}
}

func (c *camTracer) end(m mark) (time.Duration, uint64) {
	d := time.Since(m.at)
	runtime.ReadMemStats(&c.ms)
	return d, c.ms.Mallocs - m.mallocs
}

// add closes a span opened by begin, charges it to layer l and
// returns its duration.
func (c *camTracer) add(f *tracedFrame, l layer, m mark) time.Duration {
	d, a := c.end(m)
	f.dur[l] += d
	f.allocs[l] += a
	return d
}

func (t *tracer) ledgerCounts() (events, batches uint64) {
	if led := t.eng.Ledger(); led != nil {
		return led.Counts()
	}
	return 0, 0
}

// frame runs one traced frame of camera cam.
func (t *tracer) frame(ctx context.Context, cam int, sc *synth.Scene) (advdet.FrameResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cams[cam]
	f := tracedFrame{cam: cam}
	ev0 := c.events.n.Load()
	led0, bat0 := t.ledgerCounts()
	var res advdet.FrameResult
	var ferr error
	outer := c.begin()
	tm, err := t.disp.Submit(ctx, func(ctx context.Context) { res, ferr = c.run(ctx, sc, &f) })
	if err == nil {
		// Stream.Process attributes the dispatcher trip to the stream's
		// metrics after Submit returns.
		c.sys.Metrics().StageObserve(metrics.StageFleetDispatch, 0, uint64(tm.QueueWait()))
	}
	f.total, f.totalAllocs = c.end(outer)
	if err != nil {
		return advdet.FrameResult{}, fmt.Errorf("traced submit: %w", err)
	}
	if ferr != nil {
		return advdet.FrameResult{}, ferr
	}
	f.queueWait, f.execRun = tm.QueueWait(), tm.Run()
	f.dur[lyDispatch] = f.total - f.run
	f.allocs[lyDispatch] = f.totalAllocs - f.runAllocs
	f.events = c.events.n.Load() - ev0
	led1, bat1 := t.ledgerCounts()
	f.ledEvents, f.ledBatches = led1-led0, bat1-bat0
	if f.darkRan {
		// Probes after the frame, all under the same cache state: the
		// dark pipeline's first two stages on their own, then the whole
		// pipeline again, whose remainder is the pairing.
		p0 := time.Now()
		b := c.dark.Preprocess(sc.Frame)
		f.darkPre = time.Since(p0)
		p0 = time.Now()
		_, st, err := c.dark.ScanLightsStatsCtx(ctx, b, f.grant)
		f.darkLights, f.darkStats = time.Since(p0), st
		if err == nil {
			p0 = time.Now()
			_, err = c.dark.DetectCtx(ctx, sc.Frame, f.grant)
			f.darkPair = time.Since(p0) - f.darkPre - f.darkLights
		}
		if err != nil {
			return advdet.FrameResult{}, fmt.Errorf("dark probe: %w", err)
		}
	}
	c.frames = append(c.frames, f)
	return res, nil
}

// run is the work function of a traced frame, executed by the
// dispatcher. It makes the calls ProcessFrameCtx makes, in spans.
func (c *camTracer) run(ctx context.Context, sc *synth.Scene, f *tracedFrame) (res advdet.FrameResult, err error) {
	r0 := c.begin()
	defer func() { f.run, f.runAllocs = c.end(r0) }()

	m := c.begin()
	f.grant = c.pool.Acquire(c.lanes)
	c.add(f, lyLanes, m)
	defer func() {
		m := c.begin()
		c.pool.Release(f.grant)
		c.add(f, lyLanes, m)
	}()

	m = c.begin()
	res, err = c.sys.ProcessFrameCtx(ctx, sc)
	if err == nil && res.ReconfigStarted {
		// The system drops its temporal caches when it requests a
		// reconfiguration.
		for _, tc := range []*pipeline.TemporalCache{c.day.Temporal, c.dusk.Temporal, c.ped.Temporal} {
			if tc != nil {
				tc.Invalidate()
			}
		}
	}
	c.add(f, lyAdaptive, m)
	if err != nil {
		return res, err
	}

	vehicles := !res.VehicleDropped && !res.VehicleStale
	var vehWall time.Duration
	if vehicles {
		switch res.Cond {
		case synth.Day, synth.Dusk:
			det := c.day
			if res.Cond == synth.Dusk {
				det = c.dusk
			}
			m = c.begin()
			g := img.RGBToGray(sc.Frame)
			vehWall = c.add(f, lyGray, m)
			f.grayCalls++
			m = c.begin()
			res.Vehicles, err = det.DetectTimedCtx(ctx, g, f.grant, &f.veh)
			vehWall += c.add(f, lyVehicle, m)
			f.vehScan, f.vehDets = true, len(res.Vehicles)
		case synth.Dark:
			m = c.begin()
			res.Vehicles, err = c.dark.DetectCtx(ctx, sc.Frame, f.grant)
			vehWall = c.add(f, lyDark, m)
			f.darkRan = true
		}
		if err != nil {
			return res, err
		}
	}

	m = c.begin()
	g := img.RGBToGray(sc.Frame)
	pedWall := c.add(f, lyGray, m)
	f.grayCalls++
	m = c.begin()
	res.Pedestrians, err = c.ped.DetectTimedCtx(ctx, g, f.grant, &f.ped)
	pedWall += c.add(f, lyPed, m)
	if err != nil {
		return res, err
	}
	f.pedDets = len(res.Pedestrians)

	if c.tr != nil {
		m = c.begin()
		all := append(append([]advdet.Detection(nil), res.Vehicles...), res.Pedestrians...)
		c.tr.Update(all)
		res.Tracks = c.tr.Confirmed()
		c.add(f, lyTrack, m)
	}

	if reg := c.sys.Metrics(); reg != nil {
		// The per-scan telemetry a detecting System records.
		m = c.begin()
		if vehicles {
			reg.StageObserve(metrics.StageVehicleScan, 0, uint64(vehWall))
		}
		if f.vehScan {
			observeScan(reg, &f.veh)
		}
		reg.StageObserve(metrics.StagePedestrianScan, 0, uint64(pedWall))
		c.add(f, lyAdaptive, m)
	}
	return res, nil
}

// observeScan records one HOG vehicle scan's stage timings and tile
// counts the way a detecting System does.
func observeScan(reg *metrics.Registry, tm *pipeline.ScanTimings) {
	reg.StageObserve(metrics.StageScanResize, 0, uint64(tm.Resize))
	reg.StageObserve(metrics.StageScanFeature, 0, uint64(tm.Feature))
	reg.StageObserve(metrics.StageScanBlocks, 0, uint64(tm.Blocks))
	reg.StageObserve(metrics.StageScanResponse, 0, uint64(tm.Response))
	reg.StageObserve(metrics.StageScanWindows, 0, uint64(tm.Windows))
	if tm.TemporalPath {
		reg.StageObserve(metrics.StageScanTemporal, 0, uint64(tm.Temporal))
		reg.TileAdd(metrics.TileHits, uint64(tm.TileHits))
		reg.TileAdd(metrics.TileMisses, uint64(tm.TileMisses))
		reg.TileAdd(metrics.TileRefresh, uint64(tm.TileRefreshes))
		if total := tm.TileHits + tm.TileMisses + tm.TileRefreshes; total > 0 {
			reg.SetGauge(metrics.GaugeTileHitRate, uint64(tm.TileHits*10000/total))
		}
	}
}
