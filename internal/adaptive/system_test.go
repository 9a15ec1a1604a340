package adaptive

import (
	"errors"
	"testing"

	"advdet/internal/hog"
	"advdet/internal/img"
	"advdet/internal/pipeline"
	"advdet/internal/soc"
	"advdet/internal/svm"
	"advdet/internal/synth"
)

// timingSystem builds a system with no software detectors (timing and
// reconfiguration behaviour only).
func timingSystem(t *testing.T, initial synth.Condition) *System {
	t.Helper()
	opt := DefaultOptions()
	opt.Initial = initial
	opt.RunDetectors = false
	s, err := New(Detectors{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sceneFor fabricates a minimal scene of the given condition without
// rendering cost.
func sceneFor(cond synth.Condition, lux float64) *synth.Scene {
	rng := synth.NewRNG(1)
	sc := synth.RenderScene(rng, synth.SceneConfig{W: 64, H: 36, Cond: cond})
	sc.Lux = lux
	return sc
}

func TestNewStagesBothBitstreams(t *testing.T) {
	s := timingSystem(t, synth.Day)
	if !s.PR.Staged(CfgDayDusk.String()) || !s.PR.Staged(CfgDark.String()) {
		t.Fatal("bitstreams not staged at boot")
	}
	if s.Loaded() != CfgDayDusk {
		t.Fatalf("initial config %v", s.Loaded())
	}
}

func TestNewValidatesOptions(t *testing.T) {
	opt := DefaultOptions()
	opt.FPS = 0
	if _, err := New(Detectors{}, opt); err == nil {
		t.Fatal("FPS=0 accepted")
	}
	opt = DefaultOptions()
	opt.BitstreamBytes = -1
	if _, err := New(Detectors{}, opt); err == nil {
		t.Fatal("negative bitstream accepted")
	}
}

func TestDayToDuskNeedsNoReconfiguration(t *testing.T) {
	// Day and dusk share one partial configuration (two models in
	// BRAM), so e.g. entering a well-lit tunnel costs nothing.
	s := timingSystem(t, synth.Day)
	for i := 0; i < 10; i++ {
		s.ProcessFrame(sceneFor(synth.Dusk, 300))
	}
	st := s.Stats()
	if len(st.Reconfigs) != 0 {
		t.Fatalf("day->dusk caused %d reconfigurations", len(st.Reconfigs))
	}
	if st.VehicleDropped != 0 {
		t.Fatalf("day->dusk dropped %d vehicle frames", st.VehicleDropped)
	}
}

func TestDuskToDarkReconfiguresAndDropsOneFrame(t *testing.T) {
	s := timingSystem(t, synth.Dusk)
	// A few dusk frames, then darkness.
	for i := 0; i < 5; i++ {
		s.ProcessFrame(sceneFor(synth.Dusk, 300))
	}
	for i := 0; i < 20; i++ {
		s.ProcessFrame(sceneFor(synth.Dark, 5))
	}
	st := s.Stats()
	if len(st.Reconfigs) != 1 {
		t.Fatalf("reconfigurations = %d, want 1", len(st.Reconfigs))
	}
	rec := st.Reconfigs[0]
	if rec.From != CfgDayDusk || rec.To != CfgDark {
		t.Fatalf("reconfig %v -> %v", rec.From, rec.To)
	}
	if rec.DonePS == 0 {
		t.Fatal("reconfiguration never completed")
	}
	ms := soc.Seconds(rec.DonePS-rec.StartPS) * 1e3
	if ms < 19 || ms < 0 || ms > 22 {
		t.Fatalf("reconfiguration took %.2f ms, want ~20", ms)
	}
	// §IV-B: "equivalent to missing one frame in a sequence of 50fps".
	if st.VehicleDropped != 1 {
		t.Fatalf("dropped %d vehicle frames, want 1", st.VehicleDropped)
	}
	if s.Loaded() != CfgDark {
		t.Fatal("dark configuration not loaded after reconfig")
	}
}

func TestPedestrianNeverDrops(t *testing.T) {
	s := timingSystem(t, synth.Dusk)
	n := 0
	for i := 0; i < 5; i++ {
		s.ProcessFrame(sceneFor(synth.Dusk, 300))
		n++
	}
	for i := 0; i < 10; i++ {
		s.ProcessFrame(sceneFor(synth.Dark, 5))
		n++
	}
	st := s.Stats()
	if st.PedestrianFrames != n {
		t.Fatalf("pedestrian frames %d, want %d (static partition never stops)", st.PedestrianFrames, n)
	}
	if st.VehicleDropped == 0 {
		t.Fatal("expected at least one vehicle drop during reconfig")
	}
}

func TestRoundTripDarkAndBack(t *testing.T) {
	s := timingSystem(t, synth.Day)
	feed := func(cond synth.Condition, lux float64, n int) {
		for i := 0; i < n; i++ {
			s.ProcessFrame(sceneFor(cond, lux))
		}
	}
	feed(synth.Day, 10000, 5)
	feed(synth.Dark, 5, 15)
	feed(synth.Day, 10000, 15)
	st := s.Stats()
	if len(st.Reconfigs) != 2 {
		t.Fatalf("reconfigurations = %d, want 2", len(st.Reconfigs))
	}
	if st.Reconfigs[1].To != CfgDayDusk {
		t.Fatal("second reconfiguration should restore day-dusk")
	}
	if s.Loaded() != CfgDayDusk {
		t.Fatal("final configuration wrong")
	}
	// Each transition costs one frame.
	if st.VehicleDropped != 2 {
		t.Fatalf("dropped %d, want 2", st.VehicleDropped)
	}
}

func TestNoReconfigThrashOnNoisySensor(t *testing.T) {
	// Alternating readings around the dusk/dark boundary must not
	// trigger repeated reconfiguration thanks to hysteresis+debounce.
	s := timingSystem(t, synth.Dusk)
	for i := 0; i < 40; i++ {
		lux := 50.0 // inside the hysteresis band
		if i%2 == 0 {
			lux = 60
		}
		s.ProcessFrame(sceneFor(synth.Dusk, lux))
	}
	if n := len(s.Stats().Reconfigs); n != 0 {
		t.Fatalf("noisy sensor caused %d reconfigurations", n)
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	s := timingSystem(t, synth.Day)
	s.ProcessFrame(sceneFor(synth.Day, 10000))
	st := s.Stats()
	st.Frames = 999
	if s.Stats().Frames == 999 {
		t.Fatal("Stats returned shared state")
	}
}

func TestRunScenarioTunnelTransit(t *testing.T) {
	// The paper's motivating drive: day -> lit tunnel (dusk) -> day
	// -> sunset dusk -> dark. Only the dusk->dark boundary needs a
	// reconfiguration.
	s := timingSystem(t, synth.Day)
	scenario := synth.TunnelTransit(7, 64, 36, 10)
	results, err := s.RunScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != scenario.TotalFrames() {
		t.Fatalf("results %d, frames %d", len(results), scenario.TotalFrames())
	}
	st := s.Stats()
	if len(st.Reconfigs) != 1 {
		t.Fatalf("tunnel transit caused %d reconfigurations, want 1 (only entering dark)", len(st.Reconfigs))
	}
	if st.Reconfigs[0].To != CfgDark {
		t.Fatal("reconfiguration target should be dark")
	}
	if st.VehicleDropped != 1 {
		t.Fatalf("dropped %d vehicle frames, want 1", st.VehicleDropped)
	}
	// The monitor must have visited all three conditions.
	seen := map[synth.Condition]bool{}
	for _, r := range results {
		seen[r.Cond] = true
	}
	if !seen[synth.Day] || !seen[synth.Dusk] || !seen[synth.Dark] {
		t.Fatalf("conditions visited: %v", seen)
	}
}

func TestProcessFrameRejectsInvalidBands(t *testing.T) {
	// Mutating the monitor into an incoherent band configuration must
	// surface as an error from ProcessFrame, not a crash or silent
	// misclassification.
	s := timingSystem(t, synth.Day)
	s.Monitor.DayDuskDown = 10_000 // above DayDuskUp
	if _, err := s.ProcessFrame(sceneFor(synth.Day, 10000)); err == nil {
		t.Fatal("invalid monitor bands not surfaced")
	}
}

func TestNoSlotOverrunsAt50FPS(t *testing.T) {
	// The paper's operating point: 1080p at 50 fps fits the slot.
	s := timingSystem(t, synth.Day)
	sc := sceneFor(synth.Day, 10000)
	// Pretend HDTV frames: the timing path uses the frame dimensions.
	big := synth.RenderScene(synth.NewRNG(2), synth.SceneConfig{W: 64, H: 36, Cond: synth.Day})
	big.Frame = img.NewRGB(1920, 1080)
	big.Lux = 10000
	_ = sc
	for i := 0; i < 10; i++ {
		s.ProcessFrame(big)
	}
	if n := s.Stats().SlotOverruns; n != 0 {
		t.Fatalf("%d slot overruns at the 50 fps operating point", n)
	}
}

func TestSlotOverrunsAbove50FPS(t *testing.T) {
	// At 60 fps the 19.9 ms pipeline no longer fits the 16.7 ms slot:
	// the overrun counter must fire — the margin the paper's "50 fps"
	// claim sits on.
	opt := DefaultOptions()
	opt.FPS = 60
	opt.RunDetectors = false
	s, err := New(Detectors{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	big := synth.RenderScene(synth.NewRNG(3), synth.SceneConfig{W: 64, H: 36, Cond: synth.Day})
	big.Frame = img.NewRGB(1920, 1080)
	big.Lux = 10000
	for i := 0; i < 5; i++ {
		s.ProcessFrame(big)
	}
	if n := s.Stats().SlotOverruns; n == 0 {
		t.Fatal("no slot overruns at 60 fps; the timing model lost its bound")
	}
}

func TestConfigIDString(t *testing.T) {
	if CfgDayDusk.String() != "day-dusk" || CfgDark.String() != "dark" {
		t.Fatal("ConfigID strings wrong")
	}
}

// TestFrontEndMismatchRejected: vehicle and pedestrian detectors sweep
// one frame stack per frame, so a detector set whose HOG front ends
// differ is refused at boot with a typed error instead of building a
// second front end behind the caller's back.
func TestFrontEndMismatchRejected(t *testing.T) {
	ped := pipeline.NewPedestrianDetector(nil)
	day := pipeline.NewDayDuskDetector(nil)
	day.Scale = 1.5
	_, err := New(Detectors{Day: day, Pedestrian: ped}, DefaultOptions())
	if !errors.Is(err, ErrFrontEndMismatch) {
		t.Fatalf("err = %v, want ErrFrontEndMismatch", err)
	}
	day.Scale = ped.Scale
	day.HOG.Bins++
	if _, err := New(Detectors{Day: day, Pedestrian: ped}, DefaultOptions()); !errors.Is(err, ErrFrontEndMismatch) {
		t.Fatalf("err = %v, want ErrFrontEndMismatch", err)
	}
}

// TestScanGeometryRejectedAtBoot: a detector set the frame loop could
// not sweep — a vehicle stride off the 8-px cell grid — is refused at
// boot with pipeline.ErrScanGeometry instead of scanning slowly; a
// timing-only system, which never sweeps, still boots.
func TestScanGeometryRejectedAtBoot(t *testing.T) {
	w := make([]float64, hog.DefaultConfig().DescriptorLen(pipeline.VehicleWindow, pipeline.VehicleWindow))
	day := pipeline.NewDayDuskDetector(&svm.Model{W: w})
	if _, err := New(Detectors{Day: day}, DefaultOptions()); err != nil {
		t.Fatalf("aligned stride refused: %v", err)
	}
	day.Stride = 12
	if _, err := New(Detectors{Day: day}, DefaultOptions()); !errors.Is(err, pipeline.ErrScanGeometry) {
		t.Fatalf("err = %v, want ErrScanGeometry", err)
	}
	opt := DefaultOptions()
	opt.RunDetectors = false
	if _, err := New(Detectors{Day: day}, opt); err != nil {
		t.Fatalf("timing-only system refused: %v", err)
	}
}

// TestPlatformTraceStaysBounded: a long-running system's platform
// trace holds at most soc.TraceEvents events, however many frames run.
// Unbounded, 20,000 timing-only frames record four events each.
func TestPlatformTraceStaysBounded(t *testing.T) {
	s := timingSystem(t, synth.Day)
	sc := synth.RenderScene(synth.NewRNG(1), synth.SceneConfig{W: 160, H: 90, Cond: synth.Day})
	sc.Lux = 10000
	const frames = 20000
	for i := 0; i < frames; i++ {
		if _, err := s.ProcessFrame(sc); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Z.Trace.Len(); n != soc.TraceEvents {
		t.Fatalf("trace holds %d events after %d frames, want exactly the bound %d", n, frames, soc.TraceEvents)
	}
}
