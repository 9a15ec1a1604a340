package adaptive

import (
	"context"
	"errors"
	"fmt"
	"time"

	"advdet/internal/fault"
	"advdet/internal/fpga"
	"advdet/internal/img"
	"advdet/internal/ledger"
	"advdet/internal/metrics"
	"advdet/internal/par"
	"advdet/internal/pipeline"
	"advdet/internal/pr"
	"advdet/internal/soc"
	"advdet/internal/synth"
	"advdet/internal/track"
)

// ConfigID names the two partial configurations of §IV: day and dusk
// share one bitstream (same HOG+SVM hardware, two models in BRAM);
// dark has its own.
type ConfigID int

const (
	CfgDayDusk ConfigID = iota
	CfgDark
)

func (c ConfigID) String() string {
	if c == CfgDark {
		return "dark"
	}
	return "day-dusk"
}

// configFor maps a lighting condition to the partial configuration
// implementing its detector.
func configFor(c synth.Condition) ConfigID {
	if c == synth.Dark {
		return CfgDark
	}
	return CfgDayDusk
}

// Detectors bundles the trained detectors the system switches between.
type Detectors struct {
	Day        *pipeline.DayDuskDetector
	Dusk       *pipeline.DayDuskDetector
	Dark       *pipeline.DarkDetector
	Pedestrian *pipeline.PedestrianDetector
}

// withScanOptions applies the system-level scan lane flags to the HOG
// detectors by shallow-cloning the affected ones: Detectors values are
// shared across streams of one engine (and the models across engines),
// so the per-system flags must never write through the shared
// pointers.
func (d Detectors) withScanOptions(opt Options) Detectors {
	if !opt.ScanQuantized && !opt.ScanNoEarlyReject {
		return d
	}
	if d.Day != nil {
		c := *d.Day
		c.Quantized, c.NoEarlyReject = opt.ScanQuantized, opt.ScanNoEarlyReject
		d.Day = &c
	}
	if d.Dusk != nil {
		c := *d.Dusk
		c.Quantized, c.NoEarlyReject = opt.ScanQuantized, opt.ScanNoEarlyReject
		d.Dusk = &c
	}
	if d.Pedestrian != nil {
		c := *d.Pedestrian
		c.Quantized, c.NoEarlyReject = opt.ScanQuantized, opt.ScanNoEarlyReject
		d.Pedestrian = &c
	}
	return d
}

// checkFrontEnd rejects a detector set whose vehicle and pedestrian
// sweeps could not share one frame stack: every frame's sweeps read
// one HOG front end, so they must agree on its configuration and
// pyramid scale.
func (d Detectors) checkFrontEnd() error {
	if d.Pedestrian == nil {
		return nil
	}
	for _, v := range []*pipeline.DayDuskDetector{d.Day, d.Dusk} {
		if v != nil && (v.HOG != d.Pedestrian.HOG || v.Scale != d.Pedestrian.Scale) {
			return fmt.Errorf("%w: vehicle HOG %+v/%g, pedestrian HOG %+v/%g", ErrFrontEndMismatch,
				v.HOG, v.Scale, d.Pedestrian.HOG, d.Pedestrian.Scale)
		}
	}
	return nil
}

// ErrFrontEndMismatch reports vehicle and pedestrian detectors whose
// HOG configuration or pyramid scale differ, so they cannot sweep one
// shared frame stack.
var ErrFrontEndMismatch = errors.New("adaptive: vehicle and pedestrian detectors need one HOG front end")

// Options configures the system.
type Options struct {
	// FPS is the camera frame rate (50 in the paper).
	FPS int
	// BitstreamBytes is the partial bitstream size (defaults to the
	// floorplan model's ~8 MB).
	BitstreamBytes int
	// Initial is the boot lighting condition.
	Initial synth.Condition
	// RunDetectors enables actual software detection per frame; when
	// false the system models timing and reconfiguration only (for
	// long timing-focused scenarios).
	RunDetectors bool
	// SenseFromImage estimates ambient light from the frame pixels
	// (EstimateLux) instead of reading the scene's sensor value —
	// the fallback for platforms without the paper's external light
	// signal.
	SenseFromImage bool
	// EnableTracking runs a Kalman/Hungarian tracker over the
	// detections. Confirmed tracks appear in FrameResult.Tracks and
	// coast through the one-frame reconfiguration dropout.
	EnableTracking bool
	// Parallelism bounds the detection worker pool: the software
	// model of the PL's replicated window-evaluation lanes. Values
	// <= 0 select runtime.NumCPU(); 1 runs every scan on the calling
	// goroutine. Detection output is identical for every setting.
	Parallelism int
	// EnableMetrics attaches the frame-budget telemetry registry
	// (internal/metrics): per-stage counters and histograms in
	// simulated and wall time plus slot-deadline accounting, exposed
	// through Metrics() and Snapshot(). Disabled, the per-frame path
	// performs no metrics work at all.
	EnableMetrics bool
	// FaultPlan installs a fault injector on the reconfiguration
	// datapath (staging CRC, PR DMA, PR-done IRQ, model-bank select).
	// Nil disables injection at zero cost.
	FaultPlan *fault.Plan
	// Retry bounds the reconfiguration watchdog and retry/backoff
	// loop. The zero value selects DefaultRetryPolicy; zero fields are
	// filled from it.
	Retry RetryPolicy
	// ScanQuantized scores the HOG scans through the fixed-point
	// block-response datapath (windows it does not reject re-score in
	// float: detections identical to the float scan, boxes and scores).
	// The system's detectors are shallow-cloned with the flag set, so
	// shared Detectors values are never mutated.
	ScanQuantized bool
	// ScanNoEarlyReject disables the partial-margin early exit in the
	// HOG scans, scoring every window from the full response plane.
	ScanNoEarlyReject bool
	// ScanTemporalCache reuses the system's frame stack — and each
	// sweep's rows and planes — across consecutive frames, recomputing
	// only what each frame's dirty tiles invalidate (byte-identical
	// output; see pipeline.NewTemporalCache). Each system owns its own
	// cache, so the option is safe across streams sharing Detectors.
	// The cache is invalidated whenever a partial reconfiguration is
	// requested.
	ScanTemporalCache bool
	// EventSinks subscribes consumers to the unified typed event
	// stream: every frame verdict, model select, reconfiguration
	// outcome, fault and mode transition (see Event). Sinks are called
	// synchronously on the frame-processing goroutine in deterministic
	// per-stream order; the slice is copied at boot.
	EventSinks []EventSink
	// Ledger appends every event's canonical encoding to this
	// tamper-evident ledger. Streams sharing an engine share one
	// ledger (each keeps its own hash chain inside it, keyed by
	// StreamID) under a single engine-level Merkle sealer.
	Ledger *ledger.Ledger
	// StreamID labels this system's events and its chain in a shared
	// ledger. Engine streams get the engine-assigned id; standalone
	// systems default to 0.
	StreamID int32
}

// DefaultOptions returns the paper's operating point.
func DefaultOptions() Options {
	return Options{
		FPS:            50,
		BitstreamBytes: fpga.DefaultFloorplan().PartialBitstreamBytes(),
		Initial:        synth.Day,
		RunDetectors:   true,
	}
}

// Reconfiguration records one requested configuration transition of
// the vehicle detection block. A transition may take several attempts
// when faults are injected; Attempts counts them.
type Reconfiguration struct {
	Frame    int
	From, To ConfigID
	StartPS  uint64
	DonePS   uint64 // zero until complete
	Attempts int
}

// Stats accumulates system-level counters.
type Stats struct {
	Frames           int
	VehicleDropped   int // vehicle-detection frames lost to reconfiguration
	PedestrianFrames int // pedestrian frames processed (never drops)
	ModelSwitches    int // day<->dusk BRAM model selects (free: no reconfig)
	// SlotOverruns counts streams whose hardware processing (DMA +
	// pipeline, including any port queueing) finished after the frame
	// slot's deadline — the soft real-time violations that would
	// accumulate into dropped frames. The comparison is against the
	// absolute slot end (slot start + period), so a stream launched
	// late in the slot (the post-reconfiguration catch-up frame) is
	// held to the same deadline as one launched at slot start. Zero at
	// the paper's 50 fps operating point.
	SlotOverruns int
	Reconfigs    []Reconfiguration
	// Resilience counters: faults observed on the reconfiguration
	// datapath and how the system absorbed them.
	WatchdogTrips      int // PR-done deadlines missed, attempt abandoned
	Retries            int // reconfiguration retries scheduled
	VerifyFailures     int // staged bitstreams that failed the CRC pass
	StaleVehicleFrames int // frames served from the last-good resident model
	DegradedFrames     int // frames completed in ModeDegraded
	BankSelectFaults   int // failed BRAM model-select writes
	IRQsDropped        int // PR-done assertions lost (filled by Stats)
	// FaultLog records every fault in order; Err wraps the typed
	// sentinels (pr.ErrVerify, pr.ErrTimeout, pr.ErrBusy,
	// ErrBankSelect) for errors.Is dispatch.
	//
	// FaultLog is a derived view of the typed event stream — the
	// projection of EvFault events that carry an error — kept for
	// compatibility. New code should subscribe an EventSink
	// (Options.EventSinks), which additionally sees frame verdicts,
	// model selects, reconfiguration phases, IRQ drops and mode
	// transitions.
	FaultLog []FaultRecord
}

// FrameResult is the output for one input frame.
type FrameResult struct {
	Index       int
	Cond        synth.Condition
	Vehicles    []pipeline.Detection
	Pedestrians []pipeline.Detection
	// Tracks holds the confirmed tracks after this frame when
	// tracking is enabled (nil otherwise).
	Tracks          []*track.Track
	VehicleDropped  bool
	ReconfigStarted bool
	// VehicleStale marks a frame whose vehicle detections came from
	// the last-good resident model because the wanted switch had not
	// landed yet (the graceful-degradation path).
	VehicleStale bool
	// Mode is the resilience state at the end of the frame.
	Mode Mode
}

// System is the adaptive detection unit: the SoC platform, the PR
// controller with both bitstreams staged in PL DDR, the condition
// monitor and the detector set.
type System struct {
	Z       *soc.Zynq
	PR      *pr.DMAICAP
	Monitor *Monitor
	Dets    Detectors
	Opt     Options

	// eng is the shared engine this stream was created from, nil for
	// the classic standalone path. grant holds the scan lanes borrowed
	// from the engine pool for the frame currently being processed.
	eng   *Engine
	grant int

	loaded        ConfigID
	reconfiguring bool
	epoch         uint64 // simulated time when boot finished; slot 0 starts here
	frameIdx      int
	stats         Stats
	tracker       *track.Tracker
	bank          *ModelBank
	metrics       *metrics.Registry

	// Resilience state (see resilience.go). pending is an open
	// transition toward pendTarget; attemptGen/inFlightGen pair each
	// launched attempt with its watchdog and PR-done completion so
	// stale events are ignored.
	mode           Mode
	pending        bool
	pendTarget     ConfigID
	attemptGen     uint64
	inFlightGen    uint64
	inFlightTarget ConfigID
	retries        int
	recIdx         int // index of the open Reconfiguration record
	seenIRQDrops   int

	// Event-stream fan-out (see emit.go): subscribed sinks, the shared
	// tamper-evident ledger and its reusable encoding scratch.
	sinks  []EventSink
	led    *ledger.Ledger
	ledBuf []byte

	// stack is the stream's HOG front end: built at most once per
	// frame (stackOpen) and read by every sweep of the frame. With
	// ScanTemporalCache it carries its work across frames.
	stack      *pipeline.FrameStack
	stackOpen  bool                 // gray converted this frame
	stackSwept bool                 // a sweep built the stack this frame
	sweepTm    pipeline.ScanTimings // per-sweep metrics scratch
}

// New boots a standalone system: it builds the platform, stages both
// partial bitstreams into the PL-dedicated DDR (the paper's one-time
// boot cost) and loads the configuration for the initial condition.
// The system owns its Parallelism budget outright; to share detectors
// and scan lanes across streams, build an Engine and use
// Engine.NewSystem instead.
func New(dets Detectors, opt Options) (*System, error) {
	return newSystem(nil, dets, opt)
}

// newSystem is the common boot path behind New and Engine.NewSystem.
func newSystem(eng *Engine, dets Detectors, opt Options) (*System, error) {
	if opt.FPS <= 0 {
		return nil, fmt.Errorf("adaptive: FPS must be positive, got %d", opt.FPS)
	}
	if opt.BitstreamBytes <= 0 {
		return nil, fmt.Errorf("adaptive: bitstream size must be positive, got %d", opt.BitstreamBytes)
	}
	opt.Retry = opt.Retry.withDefaults()
	if err := dets.checkFrontEnd(); err != nil {
		return nil, err
	}
	dets = dets.withScanOptions(opt)
	s := &System{
		eng:     eng,
		Z:       soc.NewZynq(),
		PR:      pr.NewDMAICAP(),
		Monitor: NewMonitor(opt.Initial),
		Dets:    dets,
		Opt:     opt,
		loaded:  configFor(opt.Initial),
	}
	if opt.ScanTemporalCache {
		s.stack = pipeline.NewTemporalCache().Stack()
	} else {
		s.stack = pipeline.NewFrameStack()
	}
	if opt.EnableTracking {
		s.tracker = track.NewTracker(track.DefaultConfig())
	}
	if opt.EnableMetrics {
		s.metrics = metrics.NewRegistry()
	}
	// Copy the sink list so a caller mutating their options slice after
	// boot can never alias the emission path.
	s.sinks = append([]EventSink(nil), opt.EventSinks...)
	s.led = opt.Ledger
	if s.led != nil {
		s.ledBuf = make([]byte, 0, 128)
	}
	// Fault wiring happens before boot staging so even the boot-time
	// transfers are injectable; reconfiguration completion is
	// IRQ-driven, so a dropped PR-done genuinely loses the completion.
	s.Z.SetFaultPlan(opt.FaultPlan)
	s.PR.SetFaultPlan(opt.FaultPlan)
	s.Z.IRQ.Register(soc.IRQPRDone, s.onPRDone)
	if dets.Day != nil && dets.Dusk != nil {
		s.bank = NewModelBank(s.Z.Sim, s.Z.GP0, dets.Day.Model, dets.Dusk.Model)
		s.bank.SetFaultPlan(opt.FaultPlan)
		if opt.Initial == synth.Dusk {
			if err := s.bank.Select(1); err != nil {
				return nil, fmt.Errorf("adaptive: selecting dusk model at boot: %w", err)
			}
		}
	}
	s.PR.Stage(s.Z, CfgDayDusk.String(), opt.BitstreamBytes, nil)
	s.PR.Stage(s.Z, CfgDark.String(), opt.BitstreamBytes, nil)
	s.Z.Sim.Run() // complete boot staging before frame 0
	// The camera's slot clock is anchored here: frame 0's slot begins
	// when boot completes, so the one-time staging cost is not charged
	// against frame 0's real-time budget.
	s.epoch = s.Z.Sim.Now()
	return s, nil
}

// psPerSecond is one second of simulated time.
const psPerSecond = 1_000_000_000_000

// slotStartPS returns the exact start of frame slot i in simulated
// picoseconds, anchored at the post-boot epoch. Whole seconds resolve
// exactly and the remaining frames split the second with integer
// arithmetic, so the non-divisible picoseconds of rates like 30 or
// 60 fps distribute across the second instead of accumulating: slot
// boundaries never drift from real time no matter how long the
// scenario runs.
func (s *System) slotStartPS(i int) uint64 {
	fps := uint64(s.Opt.FPS)
	return s.epoch + uint64(i)/fps*psPerSecond + uint64(i)%fps*psPerSecond/fps
}

// Loaded returns the currently loaded partial configuration.
func (s *System) Loaded() ConfigID { return s.loaded }

// Reconfiguring reports whether a partial reconfiguration is in
// flight.
func (s *System) Reconfiguring() bool { return s.reconfiguring }

// Stats returns a copy of the accumulated counters.
func (s *System) Stats() Stats {
	cp := s.stats
	cp.Reconfigs = append([]Reconfiguration(nil), s.stats.Reconfigs...)
	cp.FaultLog = append([]FaultRecord(nil), s.stats.FaultLog...)
	cp.IRQsDropped = s.Z.IRQ.Dropped(soc.IRQPRDone)
	return cp
}

// workers resolves how many scan lanes this frame's detection work may
// use: the lanes granted by the engine pool when the system is bound
// to an engine, otherwise the raw Parallelism knob. Detection output
// is byte-identical for every value (the par determinism contract), so
// a thin grant under fleet load shapes latency only.
func (s *System) workers() int {
	if s.grant > 0 {
		return s.grant
	}
	return par.Workers(s.Opt.Parallelism)
}

// Engine returns the shared engine this system was created from, or
// nil for a standalone system.
func (s *System) Engine() *Engine { return s.eng }

// Metrics returns the telemetry registry, or nil when metrics are
// disabled. All registry methods are nil-safe, so callers may use the
// result unconditionally.
func (s *System) Metrics() *metrics.Registry { return s.metrics }

// Ledger returns the tamper-evident ledger this system appends to, or
// nil when none is attached.
func (s *System) Ledger() *ledger.Ledger { return s.led }

// Snapshot exports the telemetry registry's current state. With
// metrics disabled it returns a zero snapshot with Enabled=false.
func (s *System) Snapshot() metrics.Snapshot { return s.metrics.Snapshot() }

// ProcessFrame is ProcessFrameCtx without cancellation.
func (s *System) ProcessFrame(sc *synth.Scene) (FrameResult, error) {
	return s.ProcessFrameCtx(context.Background(), sc) // lint:ctxroot serial wrapper; caller opted out of cancellation
}

// ProcessFrameCtx advances simulated time by one frame slot and
// processes the scene: the monitor classifies the sensor reading, a
// reconfiguration is launched if the needed configuration differs from
// the loaded one, vehicle detection runs (or is dropped during
// reconfiguration), and pedestrian detection always runs. Detection
// work is fanned out across the Parallelism worker pool.
//
// The context cancels mid-frame: detection scans stop at the next row
// boundary and the frame is aborted with the context's error wrapped
// (errors.Is(err, context.Canceled/DeadlineExceeded)). Setting a
// deadline of one frame slot turns the camera's frame budget into a
// hard bound on software detection time. An aborted frame has already
// advanced the platform's simulated time and counters, so callers
// should treat the system as mid-stream, not roll it back.
//
// It also returns an error if the monitor's bands have been mutated
// into an incoherent configuration, or if a partial reconfiguration
// cannot be launched; the frame is not processed in either case.
func (s *System) ProcessFrameCtx(ctx context.Context, sc *synth.Scene) (FrameResult, error) {
	if err := ctx.Err(); err != nil {
		return FrameResult{}, fmt.Errorf("adaptive: frame %d: %w", s.frameIdx, err)
	}
	if err := s.Monitor.Validate(); err != nil {
		return FrameResult{}, err
	}
	// Borrow this frame's scan lanes from the shared engine pool (a
	// no-op for standalone systems). Held across the whole frame so
	// vehicle and pedestrian scans see one consistent worker count.
	s.beginFrameLanes()
	defer s.endFrameLanes()
	s.stackOpen, s.stackSwept = false, false
	var frameWall time.Time
	if s.metrics != nil {
		frameWall = time.Now() // lint:walltime metrics dual-recording: wall lap rides beside the ps slot clock
	}
	// Advance the platform to this frame's slot; pending DMA and
	// reconfiguration completions scheduled earlier fire here.
	slotStart := s.slotStartPS(s.frameIdx)
	slotDeadline := s.slotStartPS(s.frameIdx + 1)
	s.Z.Sim.RunUntil(slotStart)

	res := FrameResult{Index: s.frameIdx}
	var senseWall time.Time
	if s.metrics != nil {
		senseWall = time.Now() // lint:walltime metrics dual-recording: wall lap rides beside the ps slot clock
	}
	lux := sc.Lux
	if s.Opt.SenseFromImage {
		lux = EstimateLuxGray(s.frameGray(sc))
	}
	cond := s.Monitor.Update(lux)
	if s.metrics != nil {
		s.metrics.StageObserve(metrics.StageSense, 0, uint64(time.Since(senseWall))) // lint:walltime metrics dual-recording: wall lap rides beside the ps slot clock
	}
	res.Cond = cond
	need := configFor(cond)

	if need != s.loaded {
		if !s.pending || s.pendTarget != need {
			s.requestReconfig(need)
			res.ReconfigStarted = true
		}
	} else if s.pending && !s.reconfiguring {
		// The light reverted to the loaded configuration while a
		// failing switch was still backing off: nothing to recover
		// toward anymore.
		s.cancelPending()
	}

	// Day<->dusk is a BRAM model select on the running configuration:
	// one AXI-Lite write, no reconfiguration, no dropped frame. It is
	// gated on no reconfiguration being in flight: the select register
	// lives in the partition being rewritten, and an AXI-Lite write
	// into a partial bitstream mid-load is undefined on real hardware.
	// A select deferred by an in-flight reconfiguration happens on the
	// first clean frame after it completes.
	// The select is additionally gated on the day-dusk partition being
	// the loaded one: while a failing switch leaves dark resident, the
	// select register does not exist in the fabric.
	if s.bank != nil && need == CfgDayDusk && s.loaded == CfgDayDusk && !s.reconfiguring {
		slot := 0
		if cond == synth.Dusk {
			slot = 1
		}
		before := s.bank.Switches
		switch err := s.bank.Select(slot); {
		case err == nil && s.bank.Switches > before:
			s.stats.ModelSwitches++
			s.Z.Trace.Record(s.Z.Sim.Now(), "adaptive", "model-select", cond.String())
			s.emit(Event{Kind: EvModelSwitch,
				ModelSwitch: ModelSwitchEvent{Slot: int32(slot), Cond: cond}})
		case errors.Is(err, ErrBankSelect):
			// Fault-injected select failure: the previously active
			// model keeps serving and the select retries on the next
			// frame (the register write is idempotent).
			s.stats.BankSelectFaults++
			s.Z.Trace.Record(s.Z.Sim.Now(), "adaptive", "bank-select-fault", cond.String())
			s.emit(Event{Kind: EvFault,
				Fault: FaultEvent{Code: FaultCodeBankSelect, Target: s.loaded, Attempt: 1, Err: err}})
		}
	}

	// A pipeline sustains the camera rate only if each frame's
	// hardware processing (DMA + pipeline, including any port
	// queueing) finishes by the end of the frame slot; a later finish
	// is a soft real-time overrun that would accumulate into dropped
	// frames. hwFinish tracks the latest completion for the frame's
	// budget accounting.
	var hwFinish uint64
	stream := func(pipe soc.PipelineModel, hp *soc.BurstLink, irq int) {
		start := s.Z.Sim.Now()
		finish := s.Z.StreamFrame(pipe, sc.Frame.W, sc.Frame.H, 3, hp, irq, nil)
		if finish > hwFinish {
			hwFinish = finish
		}
		if s.metrics != nil {
			s.metrics.StageObserve(metrics.StageDMAStream, finish-start, 0)
		}
		if finish > slotDeadline {
			s.stats.SlotOverruns++
			s.Z.Trace.Record(start, "adaptive", "slot-overrun", pipe.Name)
		}
	}

	// Pedestrian detection: static partition, capture-synchronous and
	// never interrupted.
	stream(s.Z.PedestrianPipe, s.Z.HP1, soc.IRQPedestrianDMA)

	// Vehicle detection: the reconfigurable partition is unusable
	// while its bitstream is being rewritten. In steady state the
	// stream launches at slot start, in lockstep with capture. During
	// a reconfiguration the frame sits buffered in DDR by the input
	// DMA and the drop decision is deferred to mid-slot: a
	// reconfiguration that spills slightly into this slot does not
	// cost this frame (the buffered pixels are processed late, from
	// DDR), which makes an ~20.5 ms reconfiguration cost exactly one
	// frame at 50 fps, as the paper reports. A frame whose wanted
	// switch has NOT launched a stream (retry backoff, exhausted
	// budget) is not dropped: the partition still holds the last-good
	// configuration and serves it, stale — the graceful-degradation
	// contract that only an actively rewriting fabric loses frames.
	if s.reconfiguring {
		s.Z.Sim.RunUntil(slotStart + (slotDeadline-slotStart)/2)
	}
	if s.reconfiguring {
		res.VehicleDropped = true
		s.stats.VehicleDropped++
		s.Z.Trace.Record(s.Z.Sim.Now(), "adaptive", "vehicle-frame-dropped",
			fmt.Sprintf("frame %d", s.frameIdx))
	} else {
		stream(s.Z.VehiclePipe, s.Z.HP0, soc.IRQVehicleDMA)
		serveCond := cond
		if need != s.loaded {
			res.VehicleStale = true
			s.stats.StaleVehicleFrames++
			serveCond = s.residentCondition()
			s.Z.Trace.Record(s.Z.Sim.Now(), "adaptive", "vehicle-stale",
				fmt.Sprintf("frame %d serving %s for %s", s.frameIdx, serveCond, cond))
		}
		if s.Opt.RunDetectors {
			var scanWall time.Time
			if s.metrics != nil {
				scanWall = time.Now() // lint:walltime metrics dual-recording: wall lap rides beside the ps slot clock
			}
			vehicles, err := s.detectVehicles(ctx, sc, serveCond)
			if err != nil {
				return FrameResult{}, fmt.Errorf("adaptive: frame %d: %w", s.frameIdx, err)
			}
			if s.metrics != nil {
				s.metrics.StageObserve(metrics.StageVehicleScan, 0, uint64(time.Since(scanWall))) // lint:walltime metrics dual-recording: wall lap rides beside the ps slot clock
			}
			res.Vehicles = vehicles
		}
	}

	if s.Opt.RunDetectors && s.Dets.Pedestrian != nil {
		var scanWall time.Time
		if s.metrics != nil {
			scanWall = time.Now() // lint:walltime metrics dual-recording: wall lap rides beside the ps slot clock
		}
		peds, err := s.sweep(ctx, sc, s.Dets.Pedestrian)
		if err != nil {
			return FrameResult{}, fmt.Errorf("adaptive: frame %d: %w", s.frameIdx, err)
		}
		if s.metrics != nil {
			s.metrics.StageObserve(metrics.StagePedestrianScan, 0, uint64(time.Since(scanWall))) // lint:walltime metrics dual-recording: wall lap rides beside the ps slot clock
		}
		res.Pedestrians = peds
	}
	s.stats.PedestrianFrames++

	// Tracking: feed this frame's detections (a dropped vehicle frame
	// contributes only pedestrians; vehicle tracks coast through it on
	// their Kalman predictions).
	if s.tracker != nil {
		all := append(append([]pipeline.Detection(nil), res.Vehicles...), res.Pedestrians...)
		s.tracker.Update(all)
		res.Tracks = s.tracker.Confirmed()
	}

	res.Mode = s.mode
	if s.mode == ModeDegraded {
		s.stats.DegradedFrames++
	}
	s.syncIRQDrops()

	s.stats.Frames++
	// The frame verdict closes the frame's slice of the event stream
	// (stale/degraded fault counters are projected from it; see
	// emit.go). Emitted before frameIdx advances so the event carries
	// the index of the frame it describes.
	s.emit(Event{Kind: EvFrame, Verdict: FrameEvent{
		Cond:            cond,
		Vehicles:        int32(len(res.Vehicles)),
		Pedestrians:     int32(len(res.Pedestrians)),
		VehicleDropped:  res.VehicleDropped,
		VehicleStale:    res.VehicleStale,
		ReconfigStarted: res.ReconfigStarted,
		Mode:            s.mode,
	}})
	s.frameIdx++
	if s.metrics != nil {
		s.metrics.FrameObserve(hwFinish-slotStart,
			int64(slotDeadline)-int64(hwFinish), uint64(time.Since(frameWall))) // lint:walltime metrics dual-recording: wall lap rides beside the ps slot clock
		s.metrics.SetGauge(metrics.GaugeLoadedConfig, uint64(s.loaded))
		inFlight := uint64(0)
		if s.reconfiguring {
			inFlight = 1
		}
		s.metrics.SetGauge(metrics.GaugeReconfigInFlight, inFlight)
		s.metrics.SetGauge(metrics.GaugeFrameIndex, uint64(res.Index))
		s.metrics.SetGauge(metrics.GaugeMode, uint64(s.mode))
		s.observeStack()
		if s.led != nil {
			evs, batches := s.led.Counts()
			s.metrics.SetGauge(metrics.GaugeLedgerEvents, evs)
			s.metrics.SetGauge(metrics.GaugeLedgerBatches, batches)
		}
	}
	return res, nil
}

// detectVehicles dispatches to the condition's detector on the shared
// worker pool: a day or dusk model is a sweep over the frame stack the
// pedestrian sweep reads too; the dark pipeline is taillight-based and
// reads the stack's gray plane for luma and the RGB frame for chroma,
// so every frame converts its pixels once.
func (s *System) detectVehicles(ctx context.Context, sc *synth.Scene, cond synth.Condition) ([]pipeline.Detection, error) {
	switch cond {
	case synth.Day:
		if s.Dets.Day != nil {
			return s.sweep(ctx, sc, s.Dets.Day)
		}
	case synth.Dusk:
		if s.Dets.Dusk != nil {
			return s.sweep(ctx, sc, s.Dets.Dusk)
		}
	case synth.Dark:
		if s.Dets.Dark != nil {
			return s.Dets.Dark.DetectGrayCtx(ctx, sc.Frame, s.frameGray(sc), s.workers())
		}
	}
	return nil, nil
}

// sweeper is a HOG detector sweeping a shared frame stack.
type sweeper interface {
	SweepCtx(ctx context.Context, st *pipeline.FrameStack, workers int, tm *pipeline.ScanTimings) ([]pipeline.Detection, error)
}

// frameGray returns this frame's gray image, converting the scene once
// per frame into the stack's own buffer: the light estimate and every
// sweep read the same conversion.
func (s *System) frameGray(sc *synth.Scene) *img.Gray {
	if !s.stackOpen {
		s.stackOpen = true
		return s.stack.BeginRGB(sc.Frame, s.workers())
	}
	return s.stack.Source()
}

// sweep runs one detector's window sweep over the frame stack. With
// metrics enabled the sweep reports its own response and window
// stages; the stack's stages are observed once per frame
// (observeStack).
func (s *System) sweep(ctx context.Context, sc *synth.Scene, d sweeper) ([]pipeline.Detection, error) {
	s.frameGray(sc)
	s.stackSwept = true
	var tm *pipeline.ScanTimings
	if s.metrics != nil {
		tm = &s.sweepTm
	}
	dets, err := d.SweepCtx(ctx, s.stack, s.workers(), tm)
	if err == nil && tm != nil {
		s.metrics.StageObserve(metrics.StageScanResponse, 0, uint64(tm.Response))
		s.metrics.StageObserve(metrics.StageScanWindows, 0, uint64(tm.Windows))
	}
	return dets, err
}

// observeStack records the frame stack's front-end stages and tile
// accounting, once per frame that swept one — dark frames included,
// where the pedestrian sweep alone reads it.
func (s *System) observeStack() {
	if !s.stackSwept {
		return
	}
	tm := s.stack.Timings()
	s.metrics.StageObserve(metrics.StageScanResize, 0, uint64(tm.Resize))
	s.metrics.StageObserve(metrics.StageScanFeature, 0, uint64(tm.Feature))
	s.metrics.StageObserve(metrics.StageScanBlocks, 0, uint64(tm.Blocks))
	if tm.TemporalPath {
		s.metrics.StageObserve(metrics.StageScanTemporal, 0, uint64(tm.Temporal))
		s.metrics.TileAdd(metrics.TileHits, uint64(tm.TileHits))
		s.metrics.TileAdd(metrics.TileMisses, uint64(tm.TileMisses))
		s.metrics.TileAdd(metrics.TileRefresh, uint64(tm.TileRefreshes))
		if total := tm.TileHits + tm.TileMisses + tm.TileRefreshes; total > 0 {
			s.metrics.SetGauge(metrics.GaugeTileHitRate, uint64(tm.TileHits*10000/total))
		}
	}
}

// RunScenario is RunScenarioCtx without cancellation.
func (s *System) RunScenario(sc *synth.Scenario) ([]FrameResult, error) {
	return s.RunScenarioCtx(context.Background(), sc) // lint:ctxroot serial wrapper; caller opted out of cancellation
}

// RunScenarioCtx drives a whole synthetic drive through the system,
// returning the per-frame results. The context is checked every frame
// and mid-frame inside the detection scans; a deadline bounds the
// whole drive. On error the frames completed so far are returned
// alongside it.
func (s *System) RunScenarioCtx(ctx context.Context, sc *synth.Scenario) ([]FrameResult, error) {
	n := sc.TotalFrames()
	out := make([]FrameResult, 0, n)
	for i := 0; i < n; i++ {
		res, err := s.ProcessFrameCtx(ctx, sc.FrameAt(i))
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
