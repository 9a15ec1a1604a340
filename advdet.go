// Package advdet is a library reproduction of "Adaptive Vehicle
// Detection for Real-time Autonomous Driving System" (Hemmati,
// Biglari-Abhari, Niar — DATE 2019).
//
// It provides:
//
//   - the three detection pipelines the paper switches between
//     (HOG+SVM for day and dusk, a DBN-based taillight-pair detector
//     for dark) together with their trainers,
//   - a multi-scale HOG+SVM pedestrian detector (the static
//     partition),
//   - a cycle-approximate Zynq SoC model with the paper's partial
//     reconfiguration controllers (PCAP, AXI HWICAP, ZyCAP-style, and
//     the paper's DMA-ICAP controller), and
//   - the adaptive system tying them together: a light-condition
//     monitor with hysteresis, two partial configurations staged in
//     PL-side DDR, and reconfiguration that drops exactly one vehicle
//     frame at 50 fps while pedestrian detection keeps running.
//
// Quick start — one engine, many camera streams:
//
//	dets, err := advdet.TrainDetectors(1, advdet.Fast)
//	if err != nil { ... }
//	eng := advdet.NewEngine(dets)
//	defer eng.Close()
//	cam, err := eng.NewStream(advdet.WithStreamName("cam-front"), advdet.WithStreamFPS(50))
//	if err != nil { ... }
//	scene := advdet.RenderScene(2, 640, 360, advdet.Dark)
//	res, err := cam.Process(ctx, scene)
//	if err != nil { ... }
//
// The Engine owns everything shared and immutable (trained models,
// pooled scan scratch, the bounded worker pool); each Stream owns one
// camera's adaptive state (condition monitor, reconfiguration state
// machine, slot-deadline accounting, metrics). Beyond capacity,
// Process fails fast with ErrOverloaded instead of queueing.
//
// For a single camera without the fleet machinery there is NewSystem,
// which boots a self-contained System and spawns no goroutines:
//
//	sys, err := advdet.NewSystem(dets, advdet.WithFPS(50), advdet.WithParallelism(0))
//	res, err := sys.ProcessFrame(scene)
//
// ProcessFrameCtx/RunScenarioCtx accept a context for cancellation
// mid-frame; a deadline bounds the frame budget. Detection scans fan
// out over a worker pool (WithParallelism) with output identical to
// the serial path.
//
// The synthetic dataset and scene generators stand in for the UPM,
// SYSU and iROADS datasets of the paper; see DESIGN.md for the
// substitution rationale.
package advdet

import (
	"io"
	"time"

	"advdet/internal/adaptive"
	"advdet/internal/eval"
	"advdet/internal/fault"
	"advdet/internal/img"
	"advdet/internal/ledger"
	"advdet/internal/metrics"
	"advdet/internal/pipeline"
	"advdet/internal/pr"
	"advdet/internal/soc"
	"advdet/internal/synth"
	"advdet/internal/track"
)

// Lighting conditions.
type Condition = synth.Condition

// The three conditions of the paper.
const (
	Day  = synth.Day
	Dusk = synth.Dusk
	Dark = synth.Dark
)

// Re-exported core types. The aliases expose the full method sets of
// the internal implementations.
type (
	// Detection is one detected object (vehicle or pedestrian).
	Detection = pipeline.Detection
	// Rect is an axis-aligned box in frame coordinates.
	Rect = img.Rect
	// Scene is a rendered frame with ground truth and a sensor value.
	Scene = synth.Scene
	// Scenario is a timed multi-segment drive.
	Scenario = synth.Scenario
	// System is the adaptive detection system.
	System = adaptive.System
	// Detectors bundles the trained models a System switches between.
	Detectors = adaptive.Detectors
	// SystemOptions configures a System.
	SystemOptions = adaptive.Options
	// FrameResult is the per-frame output of a System.
	FrameResult = adaptive.FrameResult
	// Stats are the accumulated counters of a System or Stream.
	Stats = adaptive.Stats
	// ConfigID names a fabric configuration (day-dusk or dark) as
	// reported by System.Loaded and Stream.Loaded.
	ConfigID = adaptive.ConfigID
	// Confusion holds TP/TN/FP/FN counts with the paper's accuracy
	// definition (Eq. 1).
	Confusion = eval.Confusion
	// Track is one tracked object (when tracking is enabled).
	Track = track.Track
	// Drive is a temporally coherent scene sequence for tracking.
	Drive = synth.Drive
	// MetricsSnapshot is the exported state of a System's telemetry
	// registry (see WithMetrics and System.Snapshot).
	MetricsSnapshot = metrics.Snapshot
	// FaultPlan is a deterministic, seedable fault injector for the
	// reconfiguration datapath (see NewFaultPlan and WithFaultPlan).
	FaultPlan = fault.Plan
	// RetryPolicy bounds the reconfiguration watchdog and retry/backoff
	// loop, in simulated picoseconds (see WithRetryPolicy).
	RetryPolicy = adaptive.RetryPolicy
	// Mode is the resilience state a System reports (see System.Mode
	// and FrameResult.Mode).
	Mode = adaptive.Mode
	// FaultRecord is one reconfiguration fault in Stats.FaultLog; its
	// Err wraps the typed sentinels for errors.Is dispatch.
	// Stats.FaultLog is a derived view of the typed event stream (the
	// EvFault events carrying an error); subscribe an EventSink for
	// the full stream.
	FaultRecord = adaptive.FaultRecord
)

// The unified typed event stream: every frame verdict, model select,
// reconfiguration outcome, fault and mode transition a System decides
// or suffers, as one subscribable sum type. Attach consumers with
// WithEventSink / WithStreamEventSink; the tamper-evident ledger
// (WithLedger / WithStreamLedger) consumes the same stream.
type (
	// Event is one typed event: Kind selects the active payload, and
	// every event carries its stream id, frame index and
	// simulated-picosecond timestamp.
	Event = adaptive.Event
	// EventKind discriminates the Event sum (EvFrame, EvModelSwitch,
	// EvReconfig, EvFault, EvModeChange).
	EventKind = adaptive.EventKind
	// EventSink receives a stream's events, synchronously and in
	// deterministic per-stream order.
	EventSink = adaptive.EventSink
	// EventLog is a ready-made concurrent recording sink (see
	// NewEventLog).
	EventLog = adaptive.EventLog
	// FrameEvent is the EvFrame payload: one frame's verdict.
	FrameEvent = adaptive.FrameEvent
	// ModelSwitchEvent is the EvModelSwitch payload: a day<->dusk BRAM
	// model select.
	ModelSwitchEvent = adaptive.ModelSwitchEvent
	// ReconfigEvent is the EvReconfig payload: one reconfiguration
	// state-machine transition.
	ReconfigEvent = adaptive.ReconfigEvent
	// FaultEvent is the EvFault payload; Err wraps the typed sentinels
	// for errors.Is dispatch and Code is the encodable classification.
	FaultEvent = adaptive.FaultEvent
	// ModeChangeEvent is the EvModeChange payload.
	ModeChangeEvent = adaptive.ModeChangeEvent
	// ReconfigPhase names the transition an EvReconfig event reports.
	ReconfigPhase = adaptive.ReconfigPhase
	// FaultCode classifies an EvFault event.
	FaultCode = adaptive.FaultCode
)

// Event kinds.
const (
	EvFrame       = adaptive.EvFrame
	EvModelSwitch = adaptive.EvModelSwitch
	EvReconfig    = adaptive.EvReconfig
	EvFault       = adaptive.EvFault
	EvModeChange  = adaptive.EvModeChange
)

// Reconfiguration phases of an EvReconfig event.
const (
	ReconfigRequested      = adaptive.ReconfigRequested
	ReconfigLaunched       = adaptive.ReconfigLaunched
	ReconfigCompleted      = adaptive.ReconfigCompleted
	ReconfigRetryScheduled = adaptive.ReconfigRetryScheduled
	ReconfigCancelled      = adaptive.ReconfigCancelled
)

// Fault codes of an EvFault event.
const (
	FaultCodeVerify     = adaptive.FaultCodeVerify
	FaultCodeTimeout    = adaptive.FaultCodeTimeout
	FaultCodeBusy       = adaptive.FaultCodeBusy
	FaultCodeBankSelect = adaptive.FaultCodeBankSelect
	FaultCodeIRQDrop    = adaptive.FaultCodeIRQDrop
	FaultCodeOther      = adaptive.FaultCodeOther
)

// NewEventLog returns an empty recording sink: it accumulates every
// event it receives, is safe across streams, and reads back copies
// (Events, Kind, FaultRecords) that never alias its internal state.
func NewEventLog() *EventLog { return adaptive.NewEventLog() }

// The tamper-evident detection ledger: an append-only, hash-chained
// log of the event stream, batched into Merkle trees under one anchor
// chain. See WithLedger, WithStreamLedger, Engine.Ledger and
// cmd/ledgerverify.
type (
	// Ledger is the append-only hash-chained event ledger.
	Ledger = ledger.Ledger
	// LedgerConfig shapes the ledger's size-or-deadline batch sealing.
	LedgerConfig = ledger.Config
	// LedgerBatch is one sealed Merkle batch.
	LedgerBatch = ledger.Batch
	// LedgerProof is an inclusion proof from one ledgered event to its
	// batch's sealed Merkle root.
	LedgerProof = ledger.Proof
	// LedgerLog is a ledger read back from its serialized form (see
	// ReadLedgerLog and VerifyLedgerLog).
	LedgerLog = ledger.Log
	// LedgerReport is the outcome of a full offline verification pass,
	// pinpointing the first tampered record and batch if any.
	LedgerReport = ledger.Report
	// LedgerHash is a SHA-256 digest (chain head, Merkle root, anchor).
	LedgerHash = ledger.Hash
)

// NewLedger builds an empty standalone ledger; the zero LedgerConfig
// selects the defaults (64-event batches, 250 ms simulated-time span).
func NewLedger(cfg LedgerConfig) *Ledger { return ledger.New(cfg) }

// ReadLedgerLog parses a ledger serialized with Ledger.WriteTo.
func ReadLedgerLog(r io.Reader) (*LedgerLog, error) { return ledger.ReadLog(r) }

// VerifyLedgerLog recomputes every hash layer of a recorded ledger
// from the raw event bytes — per-stream chains, per-batch Merkle
// roots, the anchor chain — trusting nothing but the payloads.
func VerifyLedgerLog(lg *LedgerLog) LedgerReport { return ledger.VerifyLog(lg) }

// Resilience modes: how well the reconfigurable partition is doing.
// The static (pedestrian) partition runs every frame in every mode.
const (
	ModeNominal    = adaptive.ModeNominal
	ModeRecovering = adaptive.ModeRecovering
	ModeDegraded   = adaptive.ModeDegraded
)

// IRQPRDone is the platform interrupt line asserted when a partial
// reconfiguration completes — the line to name in FaultPlan.DropIRQ.
const IRQPRDone = soc.IRQPRDone

// Typed reconfiguration failures, for errors.Is against
// Stats.FaultLog entries and controller errors.
var (
	// ErrReconfigBusy: a reconfiguration was requested while one was
	// already in flight on the same controller.
	ErrReconfigBusy = pr.ErrBusy
	// ErrNotStaged: the named bitstream is not resident in PL DDR.
	ErrNotStaged = pr.ErrNotStaged
	// ErrVerify: a staged bitstream failed its CRC check before
	// streaming.
	ErrVerify = pr.ErrVerify
	// ErrReconfigTimeout: the PR-done interrupt was not seen within the
	// watchdog deadline and the attempt was abandoned.
	ErrReconfigTimeout = pr.ErrTimeout
	// ErrBankSelect: a BRAM model-bank select write failed; the
	// previous model keeps serving.
	ErrBankSelect = adaptive.ErrBankSelect
)

// Typed input errors, for errors.Is against boot and frame errors.
var (
	// ErrFrontEndMismatch: a system or stream was opened with vehicle
	// and pedestrian detectors whose HOG configuration or pyramid scale
	// differ. Every frame's detectors sweep one shared HOG front end.
	ErrFrontEndMismatch = adaptive.ErrFrontEndMismatch
	// ErrScanGeometry: a system or stream was opened with a HOG
	// detector whose stride is not a multiple of the cell size, or
	// whose model does not fit its window.
	ErrScanGeometry = pipeline.ErrScanGeometry
	// ErrBadFrame: a scene handed to ProcessFrame or Stream.Process is
	// nil, or its frame is nil, zero-size, or has a pixel buffer that
	// is not 3·W·H bytes. The frame is refused before it advances any
	// state.
	ErrBadFrame = pipeline.ErrBadFrame
)

// NewFaultPlan returns an empty fault plan seeded for its
// probabilistic (Chaos) rules. Arm deterministic rules with
// CorruptStage, StallDMA, AbortDMA, DropIRQ and FailBankSelect, then
// install the plan with WithFaultPlan. A nil plan injects nothing at
// zero cost.
func NewFaultPlan(seed uint64) *FaultPlan { return fault.NewPlan(seed) }

// DefaultRetryPolicy returns the retry policy matched to the paper's
// timing: a 31 ms PR-done watchdog (1.5x the ~20.5 ms stream), three
// retries, and 2 ms exponential backoff capped at 40 ms.
func DefaultRetryPolicy() RetryPolicy { return adaptive.DefaultRetryPolicy() }

// DefaultSystemOptions returns the paper's operating point: 50 fps,
// ~8 MB partial bitstreams, booting in day condition.
func DefaultSystemOptions() SystemOptions { return adaptive.DefaultOptions() }

// NewSystem boots a single-stream adaptive system with both partial
// bitstreams staged in PL-side DDR. With no options it runs at the
// paper's operating point (DefaultSystemOptions); pass functional
// options to deviate, or WithOptions to install a hand-built
// SystemOptions.
//
// NewSystem is the single-stream convenience path: it builds a private
// shared engine (detectors + scan-lane pool) for its one stream and
// spawns no goroutines, so nothing needs closing. To serve many camera
// streams over one set of trained models and one worker pool, use
// NewEngine and Engine.NewStream instead.
func NewSystem(dets Detectors, opts ...Option) (*System, error) {
	opt := DefaultSystemOptions()
	for _, o := range opts {
		o(&opt)
	}
	eng := adaptive.NewEngine(dets, adaptive.EngineConfig{Parallelism: opt.Parallelism})
	return eng.NewSystem(opt)
}

// RenderScene renders one synthetic road scene of the given size and
// condition with ground-truth boxes and a sensor reading.
func RenderScene(seed uint64, w, h int, cond Condition) *Scene {
	return synth.RenderScene(synth.NewRNG(seed), synth.DefaultSceneConfig(w, h, cond))
}

// TunnelTransit returns the paper's motivating drive scenario:
// day -> lit tunnel (dusk) -> day -> sunset -> dark.
func TunnelTransit(seed uint64, w, h, fps int) *Scenario {
	return synth.TunnelTransit(seed, w, h, fps)
}

// NightHighway returns an all-dark drive scenario.
func NightHighway(seed uint64, w, h, fps int) *Scenario {
	return synth.NightHighway(seed, w, h, fps)
}

// NewDrive returns a temporally coherent drive: the same vehicles and
// pedestrians persist frame to frame, enabling tracking.
func NewDrive(seed uint64, w, h int, cond Condition, nVehicles, nPeds int) *Drive {
	return synth.NewDrive(seed, w, h, cond, nVehicles, nPeds)
}

// MatchBoxes IoU-matches detections against ground truth.
func MatchBoxes(truth, detected []Rect, iouThresh float64) Confusion {
	return eval.MatchBoxes(truth, detected, iouThresh)
}

// ReconfigResult is one controller's measured reconfiguration
// performance.
type ReconfigResult struct {
	// Controller is the controller name ("pcap", "axi-hwicap",
	// "zycap", "dma-icap").
	Controller string
	// MBPerSec is the modeled bitstream throughput.
	MBPerSec float64
	// Elapsed is the modeled wall time to load the whole bitstream.
	Elapsed time.Duration
}

// ReconfigOption configures a ReconfigThroughputs measurement.
type ReconfigOption func(*reconfigConfig)

type reconfigConfig struct{ repeats int }

// WithMeasureRepeats averages each controller's measurement over n
// runs (each on a fresh platform). The model is deterministic today,
// so repeats tighten nothing yet; the knob keeps the bench surface
// stable for models with contention jitter.
func WithMeasureRepeats(n int) ReconfigOption {
	return func(c *reconfigConfig) { c.repeats = n }
}

// ReconfigThroughputs measures all four reconfiguration controllers
// on a bitstream of the given size — the §IV-A comparison. Results
// are ordered as pr.All() lists the controllers (slowest mechanism
// first, the paper's DMA-ICAP last), so output is stable across runs.
func ReconfigThroughputs(bytes int, opts ...ReconfigOption) ([]ReconfigResult, error) {
	cfg := reconfigConfig{repeats: 1}
	for _, o := range opts {
		o(&cfg)
	}
	out := make([]ReconfigResult, 0, 4)
	for _, ctrl := range pr.All() {
		res, err := pr.MeasureN(ctrl, bytes, cfg.repeats)
		if err != nil {
			return nil, err
		}
		out = append(out, ReconfigResult{
			Controller: res.Controller,
			MBPerSec:   res.MBPerSec,
			Elapsed:    time.Duration(res.PS / 1000), // ps -> ns
		})
	}
	return out, nil
}

// PipelineFPS returns the modeled detection frame rate for a frame
// size on the 125 MHz fabric (~50 fps at 1920x1080).
func PipelineFPS(w, h int) float64 {
	return soc.NewDetectionPipeline("vehicle").FPS(w, h)
}
