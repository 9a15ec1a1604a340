package advdet

import (
	"fmt"
	"io"
	"sync"

	"advdet/internal/adaptive"
	"advdet/internal/fleet"
	"advdet/internal/ledger"
	"advdet/internal/metrics"
)

// Fleet-scale types and errors, re-exported from internal/fleet and
// internal/metrics.
type (
	// FleetStats are the engine dispatcher's monotonic counters
	// (admitted/rejected/executed/abandoned frames; Batches counts
	// dispatches, one per executed frame).
	FleetStats = fleet.Stats
	// FleetSnapshot is the engine-wide metrics rollup: per-stream
	// slot-deadline accounting plus the aggregate streams×fps
	// capacity.
	FleetSnapshot = metrics.FleetSnapshot
	// StreamSnapshot is one stream's row in a FleetSnapshot.
	StreamSnapshot = metrics.StreamSnapshot
)

// Typed fleet admission errors — %w-wrapped sentinels, matched with
// errors.Is (never by substring).
var (
	// ErrOverloaded: the engine's bounded admission queue is full; the
	// frame was shed, not queued. Back off or degrade.
	ErrOverloaded = fleet.ErrOverloaded
	// ErrStreamClosed: the frame was offered to a closed stream.
	ErrStreamClosed = fleet.ErrStreamClosed
	// ErrEngineClosed: the engine (its dispatcher) has been closed.
	ErrEngineClosed = fleet.ErrClosed
)

// Engine is the shared half of the fleet-scale API: the immutable
// trained models, the pooled scan scratch and scan-lane budget, and
// the bounded dispatcher every stream's frames are multiplexed over —
// the software analogue of the paper's PL fabric, one set of
// synthesized detection hardware time-shared by many camera slots.
// Everything per-camera (monitor hysteresis, the reconfiguration state
// machine, slot-deadline accounting, per-stream metrics) lives in the
// Streams created from it.
//
// An Engine is safe for concurrent use by all its streams. Close it
// when done: it waits for in-flight frames and stops the ledger
// sealer, if any. The dispatcher spawns no goroutines (each frame runs
// on its Process caller's); single-stream callers who want none of
// this machinery should use NewSystem.
type Engine struct {
	adEng         *adaptive.Engine
	disp          *fleet.Dispatcher
	rollup        *metrics.Fleet
	scanQuantized bool
	scanTemporal  bool

	mu     sync.Mutex
	nextID int
	closed bool
	led    *ledger.Ledger
	sealer *fleet.Sealer
}

// engineConfig collects the EngineOption knobs.
type engineConfig struct {
	parallelism   int
	fleet         fleet.Config
	scanQuantized bool
	scanTemporal  bool
}

// EngineOption configures an Engine at construction time.
type EngineOption func(*engineConfig)

// WithEngineParallelism sets the engine's total scan-lane budget — the
// pool shared by every stream's detection scans (n <= 0 selects
// runtime.NumCPU()). Per-stream WithStreamParallelism then caps how
// many shared lanes one frame may borrow.
func WithEngineParallelism(n int) EngineOption {
	return func(c *engineConfig) { c.parallelism = n }
}

// WithFleetWorkers sets the dispatcher's executor slot count: how many
// frames (across all streams) execute concurrently. n <= 0 selects
// runtime.NumCPU().
func WithFleetWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.fleet.Workers = n }
}

// WithQueueDepth bounds how many admitted frames may wait for an
// executor at once; beyond it Stream.Process fails fast with
// ErrOverloaded instead of queueing unboundedly. n <= 0 selects twice
// the worker count.
func WithQueueDepth(n int) EngineOption {
	return func(c *engineConfig) { c.fleet.QueueDepth = n }
}

// WithEngineQuantizedScan makes fixed-point HOG scan scoring, the
// model of the PL's DSP48 integer arithmetic, the default for every
// stream opened on the engine. Its detections equal the float scan's;
// it runs 1.8–3.1× slower than the float early-exit scan at every size
// measured, so it is not a speedup (see WithQuantizedScan).
// Individual streams can still differ by passing
// WithStreamSystemOptions with ScanQuantized unset.
func WithEngineQuantizedScan() EngineOption {
	return func(c *engineConfig) { c.scanQuantized = true }
}

// WithEngineTemporalCache makes the temporal scan cache the default
// for every stream opened on the engine (see WithTemporalCache). Each
// stream still gets its own cache — only the default is shared —
// so streams never alias each other's frame history. Individual
// streams can opt out by passing WithStreamSystemOptions with
// ScanTemporalCache unset.
func WithEngineTemporalCache() EngineOption {
	return func(c *engineConfig) { c.scanTemporal = true }
}

// NewEngine builds the shared engine over a trained detector set and
// its dispatcher. The detectors are treated as immutable from
// here on: every stream scans against the same models, exactly as the
// paper's frame slots execute against the same loaded bitstreams.
func NewEngine(dets Detectors, opts ...EngineOption) *Engine {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	return &Engine{
		adEng:         adaptive.NewEngine(dets, adaptive.EngineConfig{Parallelism: cfg.parallelism}),
		disp:          fleet.NewDispatcher(cfg.fleet),
		rollup:        metrics.NewFleet(),
		scanQuantized: cfg.scanQuantized,
		scanTemporal:  cfg.scanTemporal,
	}
}

// Detectors returns the engine's shared trained models.
func (e *Engine) Detectors() Detectors { return e.adEng.Dets }

// FleetStats returns the dispatcher's admission/execution counters.
func (e *Engine) FleetStats() FleetStats { return e.disp.Stats() }

// FleetSnapshot exports the engine-wide metrics rollup: one row per
// attached stream (slot-deadline hits/misses, deadline-weighted fps)
// and the aggregate streams×fps capacity.
func (e *Engine) FleetSnapshot() FleetSnapshot { return e.rollup.Snapshot() }

// WriteFleetProm writes the fleet rollup in the Prometheus text
// exposition format: per-stream slot-deadline counters labelled by
// stream plus the aggregate capacity gauges.
func (e *Engine) WriteFleetProm(w io.Writer) error { return e.rollup.WriteProm(w) }

// Ledger returns the engine-level tamper-evident ledger, or nil if no
// stream was opened with WithStreamLedger. All enrolled streams chain
// into it (one hash chain per stream) under one Merkle sealer and one
// anchor chain.
func (e *Engine) Ledger() *Ledger {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.led
}

// ledgerLocked lazily builds the shared ledger and starts its
// wall-clock sealer the first time a stream enrolls. Caller holds
// e.mu.
func (e *Engine) ledgerLocked() *ledger.Ledger {
	if e.led == nil {
		e.led = ledger.New(ledger.Config{})
		e.sealer = fleet.NewSealer(e.led.SealOpen, 0)
	}
	return e.led
}

// Close shuts the engine down: in-flight frames complete (the
// dispatcher waits for every admitted frame), the ledger sealer's
// goroutine is joined after sealing the tail batch, and every
// subsequent Stream.Process fails with ErrEngineClosed. Close is
// idempotent. Streams need no separate teardown, though closing them
// first gives a cleaner capacity rollup (closed streams stop counting
// as active).
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	sealer := e.sealer
	e.mu.Unlock()
	e.disp.Close()
	if sealer != nil {
		sealer.Close()
	}
}

// NewStream opens one camera stream on the engine. The stream owns
// every per-camera piece of the paper's architecture — the
// light-condition monitor with hysteresis, the reconfiguration state
// machine with both bitstreams staged, slot-deadline accounting and
// (optionally) a metrics registry — while borrowing the engine's
// shared models and scan lanes for the actual detection work.
//
// A Stream is not safe for concurrent Process calls (a camera delivers
// frames in order); different streams are independent and run
// concurrently through the engine's dispatcher.
func (e *Engine) NewStream(opts ...StreamOption) (*Stream, error) {
	cfg := streamConfig{opt: DefaultSystemOptions()}
	cfg.opt.ScanQuantized = e.scanQuantized
	cfg.opt.ScanTemporalCache = e.scanTemporal
	for _, o := range opts {
		o(&cfg)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("advdet: new stream: %w", ErrEngineClosed)
	}
	id := e.nextID
	e.nextID++
	// The engine-assigned id labels the stream's events and keys its
	// hash chain in the shared ledger; with WithStreamLedger the stream
	// enrolls in the lazily built engine-level ledger + sealer.
	cfg.opt.StreamID = int32(id)
	if cfg.ledger {
		cfg.opt.Ledger = e.ledgerLocked()
	}
	e.mu.Unlock()
	if cfg.name == "" {
		cfg.name = fmt.Sprintf("stream-%d", id)
	}
	sys, err := e.adEng.NewSystem(cfg.opt)
	if err != nil {
		return nil, fmt.Errorf("advdet: new stream %s: %w", cfg.name, err)
	}
	s := &Stream{eng: e, sys: sys, name: cfg.name}
	e.rollup.Attach(cfg.name, cfg.opt.FPS, sys.Metrics())
	return s, nil
}
