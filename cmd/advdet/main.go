// Command advdet runs the full adaptive detection system over a
// synthetic drive scenario, reporting per-segment detection activity,
// reconfiguration events and the frames they cost.
//
// Usage:
//
//	advdet [-scenario tunnel|night] [-w 640] [-h 360] [-fps 50]
//	       [-seed 1] [-streams 1] [-timing-only] [-snapshots dir]
//	       [-metrics file] [-metrics-json file] [-pprof addr]
//
// With -streams N > 1 the same drive runs over N concurrent camera
// streams multiplexed on one shared engine; the report covers the
// first stream and the fleet capacity rollup covers them all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"sync"

	"advdet"
	"advdet/internal/adaptive"
	"advdet/internal/img"
	"advdet/internal/models"
	"advdet/internal/soc"
	"advdet/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("advdet: ")

	scenarioName := flag.String("scenario", "tunnel", "drive scenario: tunnel or night")
	w := flag.Int("w", 640, "frame width")
	h := flag.Int("h", 360, "frame height")
	fps := flag.Int("fps", 50, "camera frame rate")
	seed := flag.Uint64("seed", 1, "scenario seed")
	streams := flag.Int("streams", 1, "concurrent camera streams over one shared engine")
	timingOnly := flag.Bool("timing-only", false, "skip software detection (timing model only)")
	snapshots := flag.String("snapshots", "", "directory for PPM overlay snapshots (optional)")
	modelDir := flag.String("models", "", "load a trained bundle (from cmd/trainmodels) instead of retraining")
	jsonOut := flag.String("json", "", "write a machine-readable run report to this file")
	metricsOut := flag.String("metrics", "", "write frame-budget telemetry in Prometheus text format to this file (\"-\" for stdout)")
	metricsJSON := flag.String("metrics-json", "", "write the telemetry snapshot as JSON to this file (\"-\" for stdout)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	var scenario *synth.Scenario
	switch *scenarioName {
	case "tunnel":
		scenario = advdet.TunnelTransit(*seed, *w, *h, *fps)
	case "night":
		scenario = advdet.NightHighway(*seed, *w, *h, *fps)
	default:
		log.Fatalf("unknown scenario %q", *scenarioName)
	}

	var dets advdet.Detectors
	if *modelDir != "" {
		fmt.Printf("loading models from %s...\n", *modelDir)
		bundle, err := models.Load(*modelDir)
		if err != nil {
			log.Fatal(err)
		}
		day, dusk, dark, ped, err := bundle.Detectors()
		if err != nil {
			log.Fatal(err)
		}
		dets = advdet.Detectors{Day: day, Dusk: dusk, Dark: dark, Pedestrian: ped}
	} else {
		fmt.Printf("training detectors (Fast quality)...\n")
		var err error
		dets, err = advdet.TrainDetectors(*seed+100, advdet.Fast)
		if err != nil {
			log.Fatal(err)
		}
	}

	if *streams < 1 {
		log.Fatalf("-streams must be >= 1, got %d", *streams)
	}
	cond0, _ := scenario.CondAt(0)
	streamOpts := func(name string) []advdet.StreamOption {
		opts := []advdet.StreamOption{
			advdet.WithStreamName(name),
			advdet.WithStreamFPS(*fps),
			advdet.WithStreamInitial(cond0),
		}
		if *timingOnly {
			opts = append(opts, advdet.WithStreamTimingOnly())
		}
		if *metricsOut != "" || *metricsJSON != "" || *streams > 1 {
			opts = append(opts, advdet.WithStreamMetrics())
		}
		return opts
	}
	eng := advdet.NewEngine(dets, advdet.WithQueueDepth(2**streams))
	defer eng.Close()
	ctx := context.Background()
	sys, err := eng.NewStream(streamOpts("cam-0")...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running %q: %d frames of %dx%d at %d fps over %d stream(s)\n",
		scenario.Name, scenario.TotalFrames(), *w, *h, *fps, *streams)

	// Extra streams replay the same drive concurrently on the shared
	// engine while the first stream is reported frame by frame below.
	var extras sync.WaitGroup
	for n := 1; n < *streams; n++ {
		st, err := eng.NewStream(streamOpts(fmt.Sprintf("cam-%d", n))...)
		if err != nil {
			log.Fatal(err)
		}
		extras.Add(1)
		go func(st *advdet.Stream) {
			defer extras.Done()
			for i := 0; i < scenario.TotalFrames(); i++ {
				if _, err := st.Process(ctx, scenario.FrameAt(i)); err != nil {
					log.Printf("stream %s: %v", st.Name(), err)
					return
				}
			}
		}(st)
	}

	type segStats struct {
		label    string
		frames   int
		vehicles int
		peds     int
		dropped  int
	}
	var segs []segStats
	cur := ""
	for i := 0; i < scenario.TotalFrames(); i++ {
		sc := scenario.FrameAt(i)
		res, err := sys.Process(ctx, sc)
		if err != nil {
			log.Fatal(err)
		}
		_, label := scenario.CondAt(i)
		if label != cur {
			segs = append(segs, segStats{label: label})
			cur = label
		}
		s := &segs[len(segs)-1]
		s.frames++
		s.vehicles += len(res.Vehicles)
		s.peds += len(res.Pedestrians)
		if res.VehicleDropped {
			s.dropped++
		}
		if res.ReconfigStarted {
			fmt.Printf("  frame %4d: reconfiguration started (%s, condition %s)\n",
				i, label, res.Cond)
		}
		if *snapshots != "" && i%(*fps) == 0 {
			if err := writeSnapshot(*snapshots, i, sc, res); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Println("\nper-segment summary:")
	fmt.Printf("  %-20s %7s %9s %11s %8s\n", "segment", "frames", "vehicles", "pedestrians", "dropped")
	for _, s := range segs {
		fmt.Printf("  %-20s %7d %9d %11d %8d\n", s.label, s.frames, s.vehicles, s.peds, s.dropped)
	}

	extras.Wait()
	st := sys.Stats()
	fmt.Printf("\nreconfigurations: %d\n", len(st.Reconfigs))
	for _, r := range st.Reconfigs {
		ms := soc.Seconds(r.DonePS-r.StartPS) * 1e3
		fmt.Printf("  frame %4d: %s -> %s in %.2f ms\n", r.Frame, r.From, r.To, ms)
	}
	fmt.Printf("day<->dusk model switches (no reconfig): %d\n", st.ModelSwitches)
	fmt.Printf("vehicle frames dropped: %d of %d (pedestrian path processed all %d)\n",
		st.VehicleDropped, st.Frames, st.PedestrianFrames)
	if st.SlotOverruns > 0 {
		fmt.Printf("WARNING: %d frame-slot overruns (frame rate exceeds the pipeline budget)\n", st.SlotOverruns)
	}

	if *streams > 1 {
		snap := eng.FleetSnapshot()
		fst := eng.FleetStats()
		fmt.Printf("\nfleet: %d streams, %d frames dispatched (%d shed)\n",
			snap.ActiveStreams, fst.Executed, fst.Rejected)
		fmt.Printf("  aggregate capacity: %.0f streams x fps (deadline %d hit / %d missed)\n",
			snap.CapacityStreamsFPS, snap.DeadlineHits, snap.DeadlineMisses)
	}

	if *jsonOut != "" {
		report := runReport{
			Scenario:       scenario.Name,
			Frames:         st.Frames,
			FPS:            *fps,
			ModelSwitches:  st.ModelSwitches,
			VehicleDropped: st.VehicleDropped,
			SlotOverruns:   st.SlotOverruns,
		}
		for _, r := range st.Reconfigs {
			report.Reconfigs = append(report.Reconfigs, reconfigReport{
				Frame: r.Frame,
				From:  r.From.String(),
				To:    r.To.String(),
				MS:    soc.Seconds(r.DonePS-r.StartPS) * 1e3,
			})
		}
		for _, s := range segs {
			report.Segments = append(report.Segments, segmentReport{
				Label: s.label, Frames: s.frames, Vehicles: s.vehicles,
				Pedestrians: s.peds, Dropped: s.dropped,
			})
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *jsonOut)
	}

	if *metricsOut != "" {
		if err := writeTo(*metricsOut, sys.System().Metrics().WriteProm); err != nil {
			log.Fatal(err)
		}
	}
	if *metricsJSON != "" {
		if err := writeTo(*metricsJSON, sys.Snapshot().WriteJSON); err != nil {
			log.Fatal(err)
		}
	}
}

// writeTo streams fn's output to the named file, or to stdout for "-".
func writeTo(path string, fn func(w io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("telemetry written to %s\n", path)
	return f.Close()
}

// runReport is the machine-readable run summary (-json).
type runReport struct {
	Scenario       string           `json:"scenario"`
	Frames         int              `json:"frames"`
	FPS            int              `json:"fps"`
	ModelSwitches  int              `json:"model_switches"`
	VehicleDropped int              `json:"vehicle_frames_dropped"`
	SlotOverruns   int              `json:"slot_overruns"`
	Reconfigs      []reconfigReport `json:"reconfigurations"`
	Segments       []segmentReport  `json:"segments"`
}

type reconfigReport struct {
	Frame int     `json:"frame"`
	From  string  `json:"from"`
	To    string  `json:"to"`
	MS    float64 `json:"ms"`
}

type segmentReport struct {
	Label       string `json:"label"`
	Frames      int    `json:"frames"`
	Vehicles    int    `json:"vehicles"`
	Pedestrians int    `json:"pedestrians"`
	Dropped     int    `json:"dropped"`
}

// writeSnapshot renders detection overlays onto the frame and writes
// a PPM (the Fig. 5-style qualitative output).
func writeSnapshot(dir string, idx int, sc *synth.Scene, res adaptive.FrameResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	frame := sc.Frame.Clone()
	for _, d := range res.Vehicles {
		img.DrawRect(frame, d.Box, 255, 60, 60, 2)
	}
	for _, d := range res.Pedestrians {
		img.DrawRect(frame, d.Box, 60, 255, 60, 2)
	}
	for _, gt := range sc.Vehicles {
		img.DrawRect(frame, gt, 255, 255, 0, 1)
	}
	path := filepath.Join(dir, fmt.Sprintf("frame_%04d_%s.ppm", idx, res.Cond))
	return img.WritePPM(path, frame)
}
