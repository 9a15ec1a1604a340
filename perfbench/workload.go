package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"advdet"
	"advdet/internal/synth"
)

// trainSeed fixes the detectors every workload runs: the workload seed
// drives only the input generator, so runs with different seeds
// measure the same models on different frames.
const trainSeed = 1

// segment is a run of consecutive frames rendered under one light
// condition.
type segment struct {
	cond   synth.Condition
	frames int
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// why is recorded in BENCHMARK.json; the smoke test checks that
	// the two agree.
	why  string
	w, h int
	// cameras is the number of streams on the engine; each is driven
	// by its own goroutine.
	cameras int
	// rate is the open-loop frame rate of each camera in frames per
	// second; 0 drives the cameras in a closed loop.
	rate int
	// cycle lists the segments of one camera's frame cycle. The cycle
	// ends in the stream's boot condition, so the stream is back in its
	// boot state at every cycle boundary and a single reference cycle
	// checks every timed frame.
	cycle   []segment
	initial synth.Condition
	// static renders a fixed roadside camera (synth.StaticHighway)
	// instead of a camera moving with traffic (synth.Drive).
	static bool
	// profile opens the streams with the instrumented deployment
	// profile: temporal cache, quantized scan, metrics, ledger, an
	// event sink and tracking.
	profile bool
	// minCycles is the least number of whole cycles a closed-loop pass
	// runs, whatever --seconds says.
	minCycles int
	// passes is the number of timed passes the untraced time is split
	// over; the latency, rate and allocation metrics are the median of
	// their per-pass values, so a burst of host noise that slows one
	// pass does not move them.
	passes int
	// minReconfigs is the least number of reconfiguration frames a
	// full-length timed pass must contain.
	minReconfigs int
}

var workloads = []*workload{
	{
		name: "daydusk-1080p",
		why: "1080p moving traffic, dusk then day, closed loop: two HOG scans and two gray conversions a frame, " +
			"no reconfig; img.gray and scan.*.resize/feature/blocks move frame_ms_p50 here",
		w: 1920, h: 1080, cameras: 1,
		cycle:     []segment{{synth.Dusk, 6}, {synth.Day, 10}},
		initial:   synth.Day,
		minCycles: 2,
		passes:    1,
	},
	{
		name: "night-1080p",
		why: "1080p dark traffic with dusk interludes, closed loop: taillight pipeline, lone pedestrian scan, 2 " +
			"reconfigs per 12 frames; dark.* and adaptive move frame_ms_p50 here, HOG front-end work must not",
		w: 1920, h: 1080, cameras: 1,
		cycle:        []segment{{synth.Dark, 8}, {synth.Dusk, 4}},
		initial:      synth.Dusk,
		minCycles:    5,
		minReconfigs: 10,
		passes:       1,
	},
	{
		name: "fleet-static-360p",
		why: "two fixed 640x360 day cameras at 10 fps each, open loop, instrumented profile; fleet.*, " +
			"scan.*.temporal and tile_hit_rate, track, adaptive and ledger move frame_ms_p50 here",
		w: 640, h: 360, cameras: 2, rate: 10,
		cycle:   []segment{{synth.Day, 50}},
		initial: synth.Day,
		static:  true,
		profile: true,
		passes:  4,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) cycleLen() int {
	n := 0
	for _, s := range w.cycle {
		n += s.frames
	}
	return n
}

// condAt returns the light condition frame position i of the cycle is
// rendered under.
func (w *workload) condAt(i int) synth.Condition {
	i %= w.cycleLen()
	for _, s := range w.cycle {
		if i < s.frames {
			return s.cond
		}
		i -= s.frames
	}
	return w.initial
}

// render draws the first n frames of every camera's cycle from the
// workload seed, two goroutines at a time.
func (w *workload) render(seed uint64, n int) [][]*synth.Scene {
	frames := make([][]*synth.Scene, w.cameras)
	gens := make([]map[synth.Condition]func(int) *synth.Scene, w.cameras)
	for cam := range frames {
		frames[cam] = make([]*synth.Scene, n)
		gens[cam] = w.generators(seed, cam)
	}
	type job struct{ cam, i int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				frames[j.cam][j.i] = gens[j.cam][w.condAt(j.i)](j.i)
			}
		}()
	}
	for cam := range frames {
		for i := 0; i < n; i++ {
			jobs <- job{cam, i}
		}
	}
	close(jobs)
	wg.Wait()
	return frames
}

// generators builds one camera's frame source per light condition of
// the cycle. A moving camera's sources share their actors (the actor
// draw depends only on the seed), so traffic moves on smoothly across
// condition changes.
func (w *workload) generators(seed uint64, cam int) map[synth.Condition]func(int) *synth.Scene {
	camSeed := seed*0x9e3779b97f4a7c15 + uint64(cam)*0x632be59bd9b4e019 + 1
	gens := make(map[synth.Condition]func(int) *synth.Scene)
	for _, s := range w.cycle {
		if w.static {
			gens[s.cond] = synth.NewStaticHighway(camSeed, w.w, w.h, s.cond, 4).Frame
		} else {
			gens[s.cond] = synth.NewDrive(camSeed, w.w, w.h, s.cond, 4, 2).Frame
		}
	}
	return gens
}

// fps is the stream's simulated camera rate: the offered rate for an
// open-loop camera, the paper's 50 fps otherwise.
func (w *workload) fps() int {
	if w.rate > 0 {
		return w.rate
	}
	return 50
}

// eventCounter is an event sink that only counts.
type eventCounter struct{ n atomic.Int64 }

func (c *eventCounter) Emit(advdet.Event) { c.n.Add(1) }

// streamOptions returns the options each camera's stream opens with.
func (w *workload) streamOptions(sink advdet.EventSink) []advdet.StreamOption {
	opts := []advdet.StreamOption{
		advdet.WithStreamInitial(w.initial),
		advdet.WithStreamFPS(w.fps()),
	}
	if w.profile {
		opts = append(opts,
			advdet.WithStreamTemporalCache(),
			advdet.WithStreamQuantizedScan(),
			advdet.WithStreamMetrics(),
			advdet.WithStreamLedger(),
			advdet.WithStreamEventSink(sink),
			advdet.WithStreamTracking(),
		)
	}
	return opts
}

// rig is the system under test: trained detectors, the engine and one
// stream per camera.
type rig struct {
	dets    advdet.Detectors
	eng     *advdet.Engine
	streams []*advdet.Stream
	events  eventCounter
}

// newRig trains the detectors, builds the engine and opens the
// streams, returning the wall time all of that took.
func newRig(w *workload) (*rig, time.Duration, error) {
	start := time.Now()
	dets, err := advdet.TrainDetectors(trainSeed, advdet.Full)
	if err != nil {
		return nil, 0, fmt.Errorf("train detectors: %w", err)
	}
	r := &rig{dets: dets, eng: advdet.NewEngine(dets)}
	for cam := 0; cam < w.cameras; cam++ {
		st, err := r.eng.NewStream(w.streamOptions(&r.events)...)
		if err != nil {
			r.eng.Close()
			return nil, 0, fmt.Errorf("open stream %d: %w", cam, err)
		}
		r.streams = append(r.streams, st)
	}
	return r, time.Since(start), nil
}

func (r *rig) close() {
	for _, st := range r.streams {
		st.Close()
	}
	r.eng.Close()
}
