// Command socsim runs a timing-mode drive through the adaptive system
// and reports the platform's event timeline — the software analogue of
// the Vivado ILA captures and ARM event counters the paper uses for
// its measurements (§IV-A).
//
// Usage:
//
//	socsim [-frames 200] [-fps 50] [-csv trace.csv]
//	       [-metrics file] [-metrics-json file] [-pprof addr]
//	       [-faults spec] [-fault-seed n]
//
// The -faults spec is a comma-separated rule list armed on the
// reconfiguration datapath (occurrences are 1-based; 0 = every time):
//
//	corrupt:<id>:<occ>          CRC-corrupt a staging of bitstream id
//	stall:<occ>:<byte>:<ms>     stall the PR DMA mid-stream
//	abort:<occ>:<byte>          error-halt the PR DMA mid-stream
//	irq:<occ>                   drop a PR-done interrupt
//	bank:<occ>                  fail a model-bank select write
//	chaos:<site>:<prob>         random faults at a site (stage, dma-stall,
//	                            dma-abort, irq, bank), seeded by -fault-seed
//
// Example: -faults corrupt:dark:1,irq:1 runs the acceptance scenario
// of the resilience layer.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strconv"
	"strings"

	"advdet/internal/adaptive"
	"advdet/internal/fault"
	"advdet/internal/pipeline"
	"advdet/internal/soc"
	"advdet/internal/svm"
	"advdet/internal/synth"
	"advdet/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("socsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, drives the simulation and writes the report to out.
// The report is a function of the flags alone: two runs with the same
// flags print the same bytes.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("socsim", flag.ContinueOnError)
	frames := fs.Int("frames", 200, "frames to simulate")
	fps := fs.Int("fps", 50, "camera frame rate")
	csvPath := fs.String("csv", "", "write the full event trace as CSV")
	metricsOut := fs.String("metrics", "", "write frame-budget telemetry in Prometheus text format to this file (\"-\" for stdout)")
	metricsJSON := fs.String("metrics-json", "", "write the telemetry snapshot as JSON to this file (\"-\" for stdout)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address for the run's duration")
	faultSpec := fs.String("faults", "", "comma-separated fault rules for the reconfiguration datapath (see package doc)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for probabilistic (chaos) fault rules")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	opt := adaptive.DefaultOptions()
	opt.FPS = *fps
	opt.RunDetectors = false
	opt.Initial = synth.Day
	opt.EnableMetrics = *metricsOut != "" || *metricsJSON != ""
	// The fault summary below reads the unified typed event stream: an
	// EventLog sink sees every fault (including IRQ drops, which carry
	// no error and so never reach the legacy Stats.FaultLog view),
	// reconfiguration phase and mode transition with ps timestamps.
	events := adaptive.NewEventLog()
	opt.EventSinks = []adaptive.EventSink{events}
	var plan *fault.Plan
	if *faultSpec != "" {
		var err error
		if plan, err = parseFaults(*faultSpec, *faultSeed); err != nil {
			return err
		}
		opt.FaultPlan = plan
		opt.EnableMetrics = true
	}
	// Placeholder models so the BRAM model bank is instantiated and
	// its register traffic appears in the trace; timing mode never
	// evaluates them.
	dets := adaptive.Detectors{
		Day:  pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 1)}),
		Dusk: pipeline.NewDayDuskDetector(&svm.Model{W: make([]float64, 1)}),
	}
	// The engine/stream split applies even to a single timing-mode
	// stream: the engine holds what is shareable, the system the
	// per-stream state.
	sys, err := adaptive.NewEngine(dets, adaptive.EngineConfig{}).NewSystem(opt)
	if err != nil {
		return err
	}
	// The summary and -csv report the whole drive, not the platform
	// tracer's default window of recent events.
	sys.Z.Trace.Unbound()

	// A drive that exercises both a free model switch and a real
	// reconfiguration: day -> dusk -> dark -> day.
	seg := *frames / 4
	condAt := func(i int) (synth.Condition, float64) {
		switch {
		case i < seg:
			return synth.Day, 10000
		case i < 2*seg:
			return synth.Dusk, 300
		case i < 3*seg:
			return synth.Dark, 5
		default:
			return synth.Day, 10000
		}
	}

	rng := synth.NewRNG(1)
	for i := 0; i < *frames; i++ {
		cond, lux := condAt(i)
		sc := synth.RenderScene(rng.Split(), synth.SceneConfig{W: 64, H: 36, Cond: cond})
		sc.Lux = lux
		if _, err := sys.ProcessFrame(sc); err != nil {
			return err
		}
	}

	st := sys.Stats()
	fmt.Fprintf(out, "simulated %d frames at %d fps (%.2f s of driving, %.2f ms simulated/frame slot)\n",
		st.Frames, *fps, float64(st.Frames)/float64(*fps), 1000/float64(*fps))
	fmt.Fprintf(out, "model switches: %d, reconfigurations: %d, vehicle frames dropped: %d\n",
		st.ModelSwitches, len(st.Reconfigs), st.VehicleDropped)

	if plan != nil {
		fmt.Fprintf(out, "\nresilience: mode %s\n", sys.Mode())
		fmt.Fprintf(out, "  injected fault events: %d\n", len(plan.Events()))
		fmt.Fprintf(out, "  verify failures: %d, watchdog trips: %d, retries: %d, IRQs dropped: %d\n",
			st.VerifyFailures, st.WatchdogTrips, st.Retries, st.IRQsDropped)
		fmt.Fprintf(out, "  stale vehicle frames: %d, degraded frames: %d, bank-select faults: %d\n",
			st.StaleVehicleFrames, st.DegradedFrames, st.BankSelectFaults)
		for _, ev := range events.Kind(adaptive.EvFault) {
			detail := "(observed from the platform drop counter)"
			if ev.Fault.Err != nil {
				detail = ev.Fault.Err.Error()
			}
			fmt.Fprintf(out, "  fault @%8.2f ms frame %3d attempt %d [%s] -> %s: %s\n",
				soc.Seconds(ev.PS)*1e3, ev.Frame, ev.Fault.Attempt, ev.Fault.Code,
				ev.Fault.Target, detail)
		}
		for _, ev := range events.Kind(adaptive.EvModeChange) {
			fmt.Fprintf(out, "  mode  @%8.2f ms frame %3d %s -> %s\n",
				soc.Seconds(ev.PS)*1e3, ev.Frame, ev.ModeChange.From, ev.ModeChange.To)
		}
	}

	printTraceSummary(out, sys.Z.Trace.Events())

	// Reconfiguration spans measured from the trace, the ILA-style
	// measurement of §IV-A.
	if ps, ok := sys.Z.Trace.Span("dma-icap", "reconfig-start", "reconfig-done"); ok {
		fmt.Fprintf(out, "\nreconfiguration span from trace: %.2f ms\n", soc.Seconds(ps)*1e3)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := sys.Z.Trace.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "full trace written to %s\n", *csvPath)
	}

	if *metricsOut != "" {
		if err := writeTo(out, *metricsOut, sys.Metrics().WriteProm); err != nil {
			return err
		}
	}
	if *metricsJSON != "" {
		if err := writeTo(out, *metricsJSON, sys.Snapshot().WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// printTraceSummary writes the trace's span and its event counts by
// (source, event), in that order.
func printTraceSummary(out io.Writer, evs []trace.Event) {
	type key struct{ src, name string }
	counts := map[key]int{}
	var keys []key
	for _, e := range evs {
		k := key{e.Source, e.Name}
		if counts[k] == 0 {
			keys = append(keys, k)
		}
		counts[k]++
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.name, b.name))
	})
	var span uint64
	if len(evs) > 0 {
		span = evs[len(evs)-1].PS - evs[0].PS
	}
	fmt.Fprintf(out, "\ntrace: %d events spanning %.2f ms\n", len(evs), soc.Seconds(span)*1e3)
	fmt.Fprintf(out, "  %-12s %-24s %s\n", "source", "event", "count")
	for _, k := range keys {
		fmt.Fprintf(out, "  %-12s %-24s %d\n", k.src, k.name, counts[k])
	}
}

// prDMAName is the DMA engine the DMA-ICAP controller owns; stall and
// abort rules target it.
const prDMAName = "pr-dma"

// parseFaults builds a fault plan from the -faults rule list.
func parseFaults(spec string, seed uint64) (*fault.Plan, error) {
	plan := fault.NewPlan(seed)
	for _, rule := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(rule), ":")
		bad := func() (*fault.Plan, error) {
			return nil, fmt.Errorf("bad fault rule %q (see socsim package doc)", rule)
		}
		num := func(s string) (int, bool) { n, err := strconv.Atoi(s); return n, err == nil }
		switch parts[0] {
		case "corrupt":
			if len(parts) != 3 {
				return bad()
			}
			occ, ok := num(parts[2])
			if !ok {
				return bad()
			}
			plan.CorruptStage(parts[1], occ)
		case "stall":
			if len(parts) != 4 {
				return bad()
			}
			occ, ok1 := num(parts[1])
			at, ok2 := num(parts[2])
			ms, ok3 := num(parts[3])
			if !ok1 || !ok2 || !ok3 {
				return bad()
			}
			plan.StallDMA(prDMAName, occ, at, uint64(ms)*1_000_000_000)
		case "abort":
			if len(parts) != 3 {
				return bad()
			}
			occ, ok1 := num(parts[1])
			at, ok2 := num(parts[2])
			if !ok1 || !ok2 {
				return bad()
			}
			plan.AbortDMA(prDMAName, occ, at)
		case "irq":
			if len(parts) != 2 {
				return bad()
			}
			occ, ok := num(parts[1])
			if !ok {
				return bad()
			}
			plan.DropIRQ(soc.IRQPRDone, occ)
		case "bank":
			if len(parts) != 2 {
				return bad()
			}
			occ, ok := num(parts[1])
			if !ok {
				return bad()
			}
			plan.FailBankSelect(occ)
		case "chaos":
			if len(parts) != 3 {
				return bad()
			}
			site, ok := map[string]fault.Site{
				"stage":     fault.SiteStageCorrupt,
				"dma-stall": fault.SiteDMAStall,
				"dma-abort": fault.SiteDMAAbort,
				"irq":       fault.SiteIRQDrop,
				"bank":      fault.SiteBankSelect,
			}[parts[1]]
			if !ok {
				return bad()
			}
			prob, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return bad()
			}
			plan.Chaos(site, prob)
		default:
			return bad()
		}
	}
	return plan, nil
}

// writeTo streams fn's output to the named file, or to out for "-".
func writeTo(out io.Writer, path string, fn func(w io.Writer) error) error {
	if path == "-" {
		return fn(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(out, "telemetry written to %s\n", path)
	return f.Close()
}
