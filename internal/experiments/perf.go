package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"advdet/internal/adaptive"
	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/metrics"
	"advdet/internal/pipeline"
	"advdet/internal/soc"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// PerfSchema identifies the machine-readable performance report
// format. Bump only on breaking changes; additive fields keep the
// version.
const PerfSchema = "advdet-bench/v1"

// ControllerPerf is one reconfiguration controller's measured
// performance inside a PerfReport.
type ControllerPerf struct {
	Name       string  `json:"name"`
	MBPerSec   float64 `json:"mb_per_sec"`
	ReconfigMS float64 `json:"reconfig_ms"`
}

// PerfReport is the schema-stable performance summary emitted as
// BENCH_pr5.json: the headline frame-rate and latency numbers of the
// paper's §IV/§V plus the full telemetry snapshot for drill-down.
type PerfReport struct {
	Schema          string  `json:"schema"`
	CameraFPS       int     `json:"camera_fps"`
	ModeledFPS1080p float64 `json:"modeled_fps_1080p"`

	// Timing-mode drive across day -> dusk -> dark -> day.
	Frames               int     `json:"frames"`
	FrameLatencyP50MS    float64 `json:"frame_latency_p50_ms"`
	FrameLatencyP99MS    float64 `json:"frame_latency_p99_ms"`
	DeadlineHits         uint64  `json:"deadline_hits"`
	DeadlineMisses       uint64  `json:"deadline_misses"`
	ReconfigMS           float64 `json:"reconfig_ms"`
	VehicleFramesDropped int     `json:"vehicle_frames_dropped"`
	ModelSwitches        int     `json:"model_switches"`
	SlotOverruns         int     `json:"slot_overruns"`

	Controllers []ControllerPerf `json:"controllers"`

	// One real serial day scan over a 640x360 frame, broken into the
	// block-response engine's stages (additive in advdet-bench/v1).
	ScanTotalMS float64         `json:"scan_total_ms"`
	ScanStages  []ScanStagePerf `json:"scan_stages"`

	// Scan datapath comparison (additive in advdet-bench/v1): the same
	// serial scan through the float early-reject evaluator (production
	// default) and the int16/int32 fixed-point one.
	ScanEarlyRejectMS float64 `json:"scan_early_reject_ms"`
	ScanQuantizedMS   float64 `json:"scan_quantized_ms"`

	// Fleet capacity: N concurrent streams over one shared engine vs
	// a standalone stream (additive in advdet-bench/v1).
	Fleet *FleetPerf `json:"fleet,omitempty"`

	// Temporal scan cache over a static-camera highway sequence at
	// 640x360: per-frame cost without the cache, with it, and the
	// steady-state tile hit rate (additive in advdet-bench/v1).
	ScanTemporalColdMS float64 `json:"scan_temporal_cold_ms"`
	ScanTemporalWarmMS float64 `json:"scan_temporal_warm_ms"`
	TileHitRate        float64 `json:"tile_hit_rate"`

	// UHD repeats the temporal comparison at 3840x2160 when benchrepro
	// runs with -uhd (additive in advdet-bench/v1).
	UHD *TemporalPerf `json:"uhd,omitempty"`

	Metrics metrics.Snapshot `json:"metrics"`
}

// TemporalPerf is one resolution's cold-vs-warm temporal-cache scan
// comparison: the same static-camera highway sequence scanned without
// and then with the cross-frame cache attached.
type TemporalPerf struct {
	W           int     `json:"w"`
	H           int     `json:"h"`
	ColdMS      float64 `json:"cold_ms"`
	WarmMS      float64 `json:"warm_ms"`
	SpeedupX    float64 `json:"speedup_x"`
	TileHitRate float64 `json:"tile_hit_rate"`
}

// ScanStagePerf is one scan sub-stage's wall time inside a PerfReport.
type ScanStagePerf struct {
	Stage  string  `json:"stage"`
	WallMS float64 `json:"wall_ms"`
}

// PerfBench produces the PerfReport: a 120-frame timing-mode drive
// spanning all three conditions (one free model switch, two partial
// reconfigurations) with telemetry enabled, plus the §IV-A controller
// comparison. Everything runs on simulated time, so the report is
// deterministic apart from the wall-clock histograms inside Metrics.
func PerfBench() (PerfReport, error) {
	rep := PerfReport{
		Schema:          PerfSchema,
		CameraFPS:       50,
		ModeledFPS1080p: FrameRate(),
	}

	opt := adaptive.DefaultOptions()
	opt.RunDetectors = false
	opt.EnableMetrics = true
	// Placeholder models instantiate the BRAM model bank so the free
	// day<->dusk switch appears in the report; timing mode never
	// evaluates them.
	sys, err := adaptive.New(adaptive.Detectors{
		Day:  pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 1)}),
		Dusk: pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 1)}),
	}, opt)
	if err != nil {
		return rep, err
	}

	const frames = 120
	rng := synth.NewRNG(9)
	condAt := func(i int) (synth.Condition, float64) {
		switch {
		case i < frames/4:
			return synth.Day, 10000
		case i < frames/2:
			return synth.Dusk, 300
		case i < 3*frames/4:
			return synth.Dark, 5
		default:
			return synth.Day, 10000
		}
	}
	for i := 0; i < frames; i++ {
		cond, lux := condAt(i)
		sc := synth.RenderScene(rng.Split(), synth.SceneConfig{W: 64, H: 36, Cond: cond})
		sc.Lux = lux
		if _, err := sys.ProcessFrame(sc); err != nil {
			return rep, err
		}
	}

	st := sys.Stats()
	snap := sys.Snapshot()
	rep.Frames = st.Frames
	rep.FrameLatencyP50MS = float64(snap.Frames.LatencyP50PS) / 1e9
	rep.FrameLatencyP99MS = float64(snap.Frames.LatencyP99PS) / 1e9
	rep.DeadlineHits = snap.Frames.DeadlineHits
	rep.DeadlineMisses = snap.Frames.DeadlineMisses
	rep.VehicleFramesDropped = st.VehicleDropped
	rep.ModelSwitches = st.ModelSwitches
	rep.SlotOverruns = st.SlotOverruns
	rep.Metrics = snap
	for _, r := range st.Reconfigs {
		if r.DonePS == 0 {
			return rep, fmt.Errorf("experiments: reconfiguration at frame %d never completed", r.Frame)
		}
		if ms := soc.Seconds(r.DonePS-r.StartPS) * 1e3; ms > rep.ReconfigMS {
			rep.ReconfigMS = ms
		}
	}

	// One real serial vehicle scan attributes wall time to the
	// block-response engine's stages. The model carries seeded
	// synthetic normal weights rather than zeros: a zero-weight model
	// is degenerate for the early-reject cascade (every suffix bound
	// is zero, so every window bails after the first block) and would
	// wildly overstate its saving.
	wrng := synth.NewRNG(17)
	w := make([]float64, hog.DefaultConfig().DescriptorLen(pipeline.VehicleWindow, pipeline.VehicleWindow))
	for i := range w {
		w[i] = 0.05 * wrng.Norm()
	}
	scanDet := pipeline.NewDayDuskDetector(&svm.Model{W: w, Bias: -0.1})
	scanFrame := img.RGBToGray(synth.RenderScene(synth.NewRNG(9),
		synth.DefaultSceneConfig(640, 360, synth.Day)).Frame)
	// Warm-up scan: builds the one-time histogram LUT and grows the
	// pooled scratch so the timed scan is the steady-state frame.
	if _, err := scanDet.DetectCtx(context.Background(), scanFrame, 1); err != nil { // lint:ctxroot benchmark harness owns the run
		return rep, err
	}
	var tm pipeline.ScanTimings
	if _, err := scanDet.DetectTimedCtx(context.Background(), scanFrame, 1, &tm); err != nil { // lint:ctxroot benchmark harness owns the run
		return rep, err
	}
	rep.ScanTotalMS = (tm.Resize + tm.Feature + tm.Blocks + tm.Response + tm.Windows + tm.Prefilter).Seconds() * 1e3
	rep.ScanStages = []ScanStagePerf{
		{Stage: "resize", WallMS: tm.Resize.Seconds() * 1e3},
		{Stage: "feature", WallMS: tm.Feature.Seconds() * 1e3},
		{Stage: "blocks", WallMS: tm.Blocks.Seconds() * 1e3},
		{Stage: "response", WallMS: tm.Response.Seconds() * 1e3},
		{Stage: "windows", WallMS: tm.Windows.Seconds() * 1e3},
	}

	// Datapath comparison: the same frame through each evaluator,
	// serial, best of three so a stray scheduler hiccup on one rep
	// doesn't masquerade as a regression.
	lane := func(set func(d *pipeline.DayDuskDetector)) (float64, error) {
		det := *scanDet
		set(&det)
		ctx := context.Background() // lint:ctxroot benchmark harness owns the run
		if _, err := det.DetectCtx(ctx, scanFrame, 1); err != nil {
			return 0, err
		}
		best := math.Inf(1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			if _, err := det.DetectCtx(ctx, scanFrame, 1); err != nil {
				return 0, err
			}
			if ms := time.Since(start).Seconds() * 1e3; ms < best {
				best = ms
			}
		}
		return best, nil
	}
	if rep.ScanEarlyRejectMS, err = lane(func(d *pipeline.DayDuskDetector) {}); err != nil {
		return rep, err
	}
	if rep.ScanQuantizedMS, err = lane(func(d *pipeline.DayDuskDetector) { d.Quantized = true }); err != nil {
		return rep, err
	}

	// Temporal scan cache: the same scan geometry over a static-camera
	// highway sequence, cold vs warm — the cache's intended deployment
	// (a fixed roadside camera, consecutive frames mostly unchanged).
	tp, err := TemporalBench(640, 360, 8)
	if err != nil {
		return rep, err
	}
	rep.ScanTemporalColdMS = tp.ColdMS
	rep.ScanTemporalWarmMS = tp.WarmMS
	rep.TileHitRate = tp.TileHitRate

	results, err := ReconfigComparison(1)
	if err != nil {
		return rep, err
	}
	for _, r := range results {
		rep.Controllers = append(rep.Controllers, ControllerPerf{
			Name:       r.Controller,
			MBPerSec:   r.MBPerSec,
			ReconfigMS: soc.Seconds(r.PS) * 1e3,
		})
	}

	// Fleet capacity: the multi-stream experiment behind BENCH_pr7.
	fl, err := FleetBench(DefaultFleetOptions())
	if err != nil {
		return rep, err
	}
	rep.Fleet = &fl
	return rep, nil
}

// TemporalBench measures the temporal scan cache's cold-vs-warm cost
// at one resolution: a static-camera highway sequence (3 moving
// vehicles over a fixed backdrop) is scanned serially frames+1 times
// without a cache and then with one, reporting the mean per-frame
// wall time of each lane past the first frame — which the warm lane
// spends filling the cache and the cold lane uses as its own warm-up,
// so both lanes time only steady-state frames. Detections are
// byte-identical between the lanes by the cache's contract.
func TemporalBench(w, h, frames int) (TemporalPerf, error) {
	tp := TemporalPerf{W: w, H: h}
	wrng := synth.NewRNG(17)
	wts := make([]float64, hog.DefaultConfig().DescriptorLen(pipeline.VehicleWindow, pipeline.VehicleWindow))
	for i := range wts {
		wts[i] = 0.05 * wrng.Norm()
	}
	det := pipeline.NewDayDuskDetector(&svm.Model{W: wts, Bias: -0.1})
	sh := synth.NewStaticHighway(10, w, h, synth.Day, 3)
	grays := make([]*img.Gray, frames+1)
	for i := range grays {
		grays[i] = img.RGBToGray(sh.Frame(i).Frame)
	}
	ctx := context.Background() // lint:ctxroot benchmark harness owns the run
	lane := func(tc *pipeline.TemporalCache) (float64, error) {
		d := *det
		d.Temporal = tc
		if _, err := d.DetectCtx(ctx, grays[0], 1); err != nil {
			return 0, err
		}
		start := time.Now()
		for _, g := range grays[1:] {
			if _, err := d.DetectCtx(ctx, g, 1); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() * 1e3 / float64(frames), nil
	}
	var err error
	if tp.ColdMS, err = lane(nil); err != nil {
		return tp, err
	}
	tc := pipeline.NewTemporalCache()
	if tp.WarmMS, err = lane(tc); err != nil {
		return tp, err
	}
	tp.TileHitRate = tc.Stats().HitRate()
	if tp.WarmMS > 0 {
		tp.SpeedupX = tp.ColdMS / tp.WarmMS
	}
	return tp, nil
}

// WritePerfJSON writes the report as indented JSON.
func (p PerfReport) WritePerfJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// WritePerf prints the report's headline rows for humans.
func WritePerf(w io.Writer, p PerfReport) {
	fmt.Fprintln(w, "performance summary (timing-mode drive, day->dusk->dark->day):")
	fmt.Fprintf(w, "  camera rate: %d fps; modeled pipeline at 1080p: %.1f fps\n",
		p.CameraFPS, p.ModeledFPS1080p)
	fmt.Fprintf(w, "  %d frames: latency p50 %.3f ms / p99 %.3f ms, deadline %d hit / %d missed\n",
		p.Frames, p.FrameLatencyP50MS, p.FrameLatencyP99MS, p.DeadlineHits, p.DeadlineMisses)
	fmt.Fprintf(w, "  reconfiguration %.2f ms; %d vehicle frame(s) dropped, %d model switch(es), %d overrun(s)\n",
		p.ReconfigMS, p.VehicleFramesDropped, p.ModelSwitches, p.SlotOverruns)
	fmt.Fprintf(w, "  vehicle scan (640x360, serial): %.2f ms total\n", p.ScanTotalMS)
	for _, s := range p.ScanStages {
		fmt.Fprintf(w, "    stage %-9s %7.3f ms\n", s.Stage, s.WallMS)
	}
	if p.ScanEarlyRejectMS > 0 {
		fmt.Fprintf(w, "  scan datapaths: early-reject %.2f ms, quantized %.2f ms\n",
			p.ScanEarlyRejectMS, p.ScanQuantizedMS)
	}
	if p.ScanTemporalColdMS > 0 {
		fmt.Fprintf(w, "  temporal cache (static camera, 640x360): cold %.2f ms, warm %.2f ms (%.2fx), tile hit rate %.1f%%\n",
			p.ScanTemporalColdMS, p.ScanTemporalWarmMS,
			p.ScanTemporalColdMS/p.ScanTemporalWarmMS, 100*p.TileHitRate)
	}
	if p.UHD != nil {
		fmt.Fprintf(w, "  temporal cache (static camera, %dx%d): cold %.2f ms, warm %.2f ms (%.2fx), tile hit rate %.1f%%\n",
			p.UHD.W, p.UHD.H, p.UHD.ColdMS, p.UHD.WarmMS, p.UHD.SpeedupX, 100*p.UHD.TileHitRate)
	}
	for _, c := range p.Controllers {
		fmt.Fprintf(w, "  controller %-12s %7.1f MB/s, %7.2f ms per 8 MB bitstream\n",
			c.Name, c.MBPerSec, c.ReconfigMS)
	}
	if p.Fleet != nil {
		WriteFleet(w, *p.Fleet)
	}
}
