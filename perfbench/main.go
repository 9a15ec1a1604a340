// Command perfbench is the repository's frame benchmark. It drives a
// named workload through the public Engine/Stream API, checks every
// frame against a serial reference and the paper's invariants, and
// prints each metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload daydusk-1080p --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with
// --trace 1 a second, traced pass rebuilds each frame from the calls
// System.ProcessFrameCtx makes, one span per layer, and the JSON
// carries the per-layer metrics. BENCHMARK.json at the repository root
// lists both sets. The exit code is 0 when every check passes, 1 when
// a check fails, 2 on a usage or set-up error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"advdet"
	"advdet/internal/fleet"
	"advdet/internal/pipeline"
	"advdet/internal/synth"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists
// them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frame_ms_p50", "ms"},
	{"frame_ms_tail", "ms"},
	{"fps", "1/s"},
	{"allocs_per_frame", "count"},
	{"alloc_kb_per_frame", "KiB"},
}

// perLayer are the metrics of a traced run, as BENCHMARK.json lists
// them. Span times are per-frame means over the traced pass, so the
// layer spans and unattributed_ms add up to traced.frame_ms.
var perLayer = []metricDef{
	{"traced.frame_ms", "ms"},
	{"unattributed_ms", "ms"},
	{"trace_overhead_ms", "ms"},
	{"fleet.dispatch_ms", "ms"},
	{"fleet.queue_wait_ms_p50", "ms"},
	{"fleet.run_ms_p50", "ms"},
	{"fleet.batch_items_mean", "count"},
	{"fleet.shed", "count"},
	{"fleet.lanes_ms", "ms"},
	{"adaptive.frame_ms", "ms"},
	{"adaptive.events", "count"},
	{"ledger.events", "count"},
	{"ledger.batches", "count"},
	{"img.gray_ms", "ms"},
	{"img.gray_calls", "count"},
	{"scan.vehicle.resize_ms", "ms"},
	{"scan.vehicle.feature_ms", "ms"},
	{"scan.vehicle.blocks_ms", "ms"},
	{"scan.vehicle.response_ms", "ms"},
	{"scan.vehicle.windows_ms", "ms"},
	{"scan.vehicle.temporal_ms", "ms"},
	{"scan.vehicle.total_ms", "ms"},
	{"scan.vehicle.detections", "count"},
	{"scan.vehicle.tile_hit_rate", "share"},
	{"scan.ped.resize_ms", "ms"},
	{"scan.ped.feature_ms", "ms"},
	{"scan.ped.blocks_ms", "ms"},
	{"scan.ped.response_ms", "ms"},
	{"scan.ped.windows_ms", "ms"},
	{"scan.ped.temporal_ms", "ms"},
	{"scan.ped.total_ms", "ms"},
	{"scan.ped.detections", "count"},
	{"scan.ped.tile_hit_rate", "share"},
	{"dark.total_ms", "ms"},
	{"dark.preprocess_ms", "ms"},
	{"dark.lights_ms", "ms"},
	{"dark.pair_ms", "ms"},
	{"dark.windows", "count"},
	{"dark.evaluated", "count"},
	{"dark.hits", "count"},
	{"track.update_ms", "ms"},
	{"fleet.dispatch.allocs", "count"},
	{"fleet.lanes.allocs", "count"},
	{"adaptive.allocs", "count"},
	{"img.gray.allocs", "count"},
	{"scan.vehicle.allocs", "count"},
	{"scan.ped.allocs", "count"},
	{"dark.allocs", "count"},
	{"track.allocs", "count"},
	{"unattributed.allocs", "count"},
	{"traced.allocs_per_frame", "count"},
	{"frame_ms_p50.day", "ms"},
	{"frame_ms_p50.dusk", "ms"},
	{"frame_ms_p50.dark", "ms"},
	{"frame_ms_p50.reconfig", "ms"},
	{"frame_ms_tail.pct", "percentile"},
	{"frames", "count"},
	{"late_share", "share"},
	{"failed_share", "share"},
	{"harness.gen_lag_ms_max", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// frames caps the timed frames per camera and pass, skips the
	// warm-up, renders only that many frames and sets up once (smoke
	// runs); 0 runs whole cycles for seconds.
	frames int
	// mutateRef, when set, alters the reference before the frames are
	// checked against it.
	mutateRef func([][]refFrame)
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "seconds of timed frames (half untraced, half traced with --trace 1)")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports per-layer metrics")
	fs.IntVar(&cfg.frames, "frames", 0, "cap on timed frames per camera (smoke runs); 0 runs for --seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	rep, err := run(context.Background(), cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// run executes one invocation: set-up, rendering, warm-up, the timed
// pass (and the traced pass), then the checks. Human-readable metric
// lines go to out, check failures to errOut.
func run(ctx context.Context, cfg config, out, errOut io.Writer) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 && cfg.frames <= 0 {
		return nil, errors.New("--seconds must be positive")
	}

	// An untraced run sets up three times and reports the median; the
	// traced run reports no set-up time.
	reps := 3
	if cfg.trace || cfg.frames > 0 {
		reps = 1
	}
	var r *rig
	var setups []float64
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
		}
		var took time.Duration
		if r, took, err = newRig(w); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer r.close()

	n := w.cycleLen()
	if cfg.frames > 0 {
		n = min(n, cfg.frames)
	}
	frames := w.render(cfg.seed, n)
	lim := limits{seconds: cfg.seconds, frames: cfg.frames}
	if cfg.trace {
		// The untraced and the traced passes share the run's time.
		lim.seconds /= 2
	}
	untraced := lim
	untraced.seconds /= float64(w.passes)

	process := func(ctx context.Context, cam int, sc *synth.Scene) (advdet.FrameResult, error) {
		return r.streams[cam].Process(ctx, sc)
	}
	if cfg.frames == 0 {
		if err := warmUp(ctx, frames, process); err != nil {
			return nil, err
		}
	}
	rejected := r.eng.FleetStats().Rejected
	ps := make([]pass, w.passes)
	for i := range ps {
		ps[i] = runPass(ctx, w, frames, process, untraced)
	}
	shed := r.eng.FleetStats().Rejected - rejected

	var t *tracer
	var tp pass
	var dispatched fleet.Stats
	if cfg.trace {
		if t, err = newTracer(w, r); err != nil {
			return nil, err
		}
		defer t.close()
		if cfg.frames == 0 {
			if err := warmUp(ctx, frames, t.frame); err != nil {
				return nil, err
			}
			for _, c := range t.cams {
				c.frames = c.frames[:0]
			}
		}
		before := t.disp.Stats()
		tp = runPass(ctx, w, frames, t.frame, lim)
		after := t.disp.Stats()
		dispatched.Executed, dispatched.Batches = after.Executed-before.Executed, after.Batches-before.Batches
	}

	ref, err := reference(w, r.dets, frames)
	if err != nil {
		return nil, err
	}
	if cfg.mutateRef != nil {
		cfg.mutateRef(ref)
	}
	var passes []timedPass
	attempted := 0
	for _, p := range ps {
		passes = append(passes, timedPass{p.obs, r.streams})
		attempted += len(p.obs)
	}
	if cfg.trace {
		passes = append(passes, timedPass{tp.obs, t.streams()})
	}
	bad := checkRun(w, ref, passes, cfg.frames == 0)
	for i, msg := range bad {
		if i == 20 {
			fmt.Fprintf(errOut, "check: ... and %d more\n", len(bad)-20)
			break
		}
		fmt.Fprintln(errOut, "check:", msg)
	}
	attempted += len(tp.obs)
	// Run-level violations count once each on top of the failing frames.
	failed := min(len(bad), attempted)

	all := summarize(w, ps, shed)
	all["setup_s"] = metricValue{median(setups), "s"}
	all["failed_share"] = metricValue{float64(failed) / float64(attempted), "share"}
	if cfg.trace {
		for k, v := range layerMetrics(t, dispatched, ps) {
			all[k] = v
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := &report{Correct: len(bad) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := all[d.name]
		if !ok || v.Unit != d.unit {
			return nil, fmt.Errorf("metric %s not measured with unit %s", d.name, d.unit)
		}
		rep.Metrics[d.name] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(out, "%s %s = %.4f %s\n", w.name, k, all[k].Value, all[k].Unit)
	}
	return rep, nil
}

// summarize computes the end-to-end metrics of the untraced passes,
// and the per-condition and open-loop figures reported beside them.
// Latency, rate and allocation metrics are the median of their
// per-pass values; frame counts, shares, per-condition medians and the
// generator lag pool every pass.
func summarize(w *workload, ps []pass, shed uint64) map[string]metricValue {
	perPass := []struct {
		name, unit string
		values     []float64
	}{
		{name: "frame_ms_p50", unit: "ms"},
		{name: "frame_ms_tail", unit: "ms"},
		{name: "frame_ms_tail.pct", unit: "percentile"},
		{name: "fps", unit: "1/s"},
		{name: "allocs_per_frame", unit: "count"},
		{name: "alloc_kb_per_frame", unit: "KiB"},
	}
	byCond := map[string][]float64{}
	frames, late := 0, 0
	var genLag time.Duration
	period := time.Duration(0)
	if w.rate > 0 {
		period = time.Second / time.Duration(w.rate)
	}
	for _, p := range ps {
		var lat []float64
		for _, o := range p.obs {
			if o.err != nil {
				late++ // a refused or failed frame misses every deadline
				continue
			}
			if period > 0 && o.lat > period {
				late++
			}
			l := ms(o.lat)
			lat = append(lat, l)
			byCond[o.res.Cond.String()] = append(byCond[o.res.Cond.String()], l)
			if o.res.ReconfigStarted || o.res.VehicleDropped {
				byCond["reconfig"] = append(byCond["reconfig"], l)
			}
		}
		n := float64(len(p.obs))
		pct, tailMS := tail(lat)
		for i, v := range []float64{
			median(lat), tailMS, float64(pct),
			float64(len(lat)) / p.wall.Seconds(),
			float64(p.mallocs) / n, float64(p.allocBytes) / 1024 / n,
		} {
			perPass[i].values = append(perPass[i].values, v)
		}
		frames += len(p.obs)
		genLag = max(genLag, p.genLag)
	}
	m := map[string]metricValue{
		"frames":                 {float64(frames), "count"},
		"late_share":             {float64(late) / float64(frames), "share"},
		"harness.gen_lag_ms_max": {ms(genLag), "ms"},
		"fleet.shed":             {float64(shed), "count"},
	}
	for _, pp := range perPass {
		m[pp.name] = metricValue{median(pp.values), pp.unit}
	}
	// A condition the workload never shows reads 0.
	for _, c := range []string{synth.Day.String(), synth.Dusk.String(), synth.Dark.String(), "reconfig"} {
		m["frame_ms_p50."+c] = metricValue{median(byCond[c]), "ms"}
	}
	return m
}

// layerMetrics computes the per-layer metrics of the traced pass.
// untraced are the untraced passes, for the tracing overhead: the
// median traced frame (the Submit span) minus the median
// Stream.Process call.
func layerMetrics(t *tracer, st fleet.Stats, untraced []pass) map[string]metricValue {
	var fs []tracedFrame
	for _, c := range t.cams {
		fs = append(fs, c.frames...)
	}
	n := float64(max(len(fs), 1))
	perFrame := func(get func(*tracedFrame) float64) float64 {
		var sum float64
		for i := range fs {
			sum += get(&fs[i])
		}
		return sum / n
	}
	msOf := func(get func(*tracedFrame) time.Duration) float64 {
		return perFrame(func(f *tracedFrame) float64 { return ms(get(f)) })
	}
	m := map[string]metricValue{}
	put := func(name, unit string, v float64) { m[name] = metricValue{v, unit} }

	put("traced.frame_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return f.total }))
	put("traced.allocs_per_frame", "count", perFrame(func(f *tracedFrame) float64 { return float64(f.totalAllocs) }))
	for l, name := range layerMetricNames {
		put(name.ms, "ms", msOf(func(f *tracedFrame) time.Duration { return f.dur[l] }))
		put(name.allocs, "count", perFrame(func(f *tracedFrame) float64 { return float64(f.allocs[l]) }))
	}
	put("unattributed_ms", "ms", msOf(func(f *tracedFrame) time.Duration {
		d := f.total
		for _, s := range f.dur {
			d -= s
		}
		return d
	}))
	put("unattributed.allocs", "count", perFrame(func(f *tracedFrame) float64 {
		a := f.totalAllocs
		for _, s := range f.allocs {
			a -= s
		}
		return float64(a)
	}))

	var calls, traced, queue, runs []float64
	for _, p := range untraced {
		for _, o := range p.obs {
			if o.err == nil {
				calls = append(calls, ms(o.call))
			}
		}
	}
	for i := range fs {
		traced = append(traced, ms(fs[i].total))
		queue = append(queue, ms(fs[i].queueWait))
		runs = append(runs, ms(fs[i].execRun))
	}
	put("trace_overhead_ms", "ms", median(traced)-median(calls))
	put("fleet.queue_wait_ms_p50", "ms", median(queue))
	put("fleet.run_ms_p50", "ms", median(runs))
	put("fleet.batch_items_mean", "count", float64(st.Executed)/float64(max(st.Batches, 1)))
	put("adaptive.events", "count", perFrame(func(f *tracedFrame) float64 { return float64(f.events) }))
	put("ledger.events", "count", perFrame(func(f *tracedFrame) float64 { return float64(f.ledEvents) }))
	put("ledger.batches", "count", perFrame(func(f *tracedFrame) float64 { return float64(f.ledBatches) }))
	put("img.gray_calls", "count", perFrame(func(f *tracedFrame) float64 { return float64(f.grayCalls) }))

	for _, s := range []struct {
		name string
		tm   func(*tracedFrame) *pipeline.ScanTimings
		dets func(*tracedFrame) int
	}{
		{"scan.vehicle", func(f *tracedFrame) *pipeline.ScanTimings { return &f.veh }, func(f *tracedFrame) int { return f.vehDets }},
		{"scan.ped", func(f *tracedFrame) *pipeline.ScanTimings { return &f.ped }, func(f *tracedFrame) int { return f.pedDets }},
	} {
		put(s.name+".resize_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return s.tm(f).Resize }))
		put(s.name+".feature_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return s.tm(f).Feature }))
		put(s.name+".blocks_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return s.tm(f).Blocks }))
		put(s.name+".response_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return s.tm(f).Response }))
		put(s.name+".windows_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return s.tm(f).Windows }))
		put(s.name+".temporal_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return s.tm(f).Temporal }))
		put(s.name+".detections", "count", perFrame(func(f *tracedFrame) float64 { return float64(s.dets(f)) }))
		var hits, tiles int
		for i := range fs {
			tm := s.tm(&fs[i])
			hits += tm.TileHits
			tiles += tm.TileHits + tm.TileMisses + tm.TileRefreshes
		}
		put(s.name+".tile_hit_rate", "share", float64(hits)/float64(max(tiles, 1)))
	}

	put("dark.preprocess_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return f.darkPre }))
	put("dark.lights_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return f.darkLights }))
	put("dark.pair_ms", "ms", msOf(func(f *tracedFrame) time.Duration { return f.darkPair }))
	put("dark.windows", "count", perFrame(func(f *tracedFrame) float64 { return float64(f.darkStats.Windows) }))
	put("dark.evaluated", "count", perFrame(func(f *tracedFrame) float64 { return float64(f.darkStats.Evaluated) }))
	put("dark.hits", "count", perFrame(func(f *tracedFrame) float64 { return float64(f.darkStats.Hits) }))
	return m
}
