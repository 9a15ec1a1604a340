package advdet

import (
	"context"
	"fmt"
	"sync"

	"advdet/internal/metrics"
)

// Stream is one camera's view of a shared Engine: the per-stream
// adaptive state (monitor, reconfiguration state machine, slot clock,
// stats, optional metrics registry) behind a frame-at-a-time API whose
// work executes on the engine's shared worker pool.
type Stream struct {
	eng  *Engine
	sys  *System
	name string

	mu     sync.Mutex
	closed bool
}

// streamConfig collects the StreamOption knobs over a SystemOptions.
type streamConfig struct {
	name   string
	ledger bool
	opt    SystemOptions
}

// StreamOption configures a Stream at creation time. Options are
// applied in order on top of DefaultSystemOptions, so later options
// win; WithStreamSystemOptions replaces the whole struct and is
// therefore usually first when mixed with field options.
type StreamOption func(*streamConfig)

// WithStreamName labels the stream in the fleet metrics rollup and in
// error messages. Defaults to "stream-<n>" in creation order.
func WithStreamName(name string) StreamOption {
	return func(c *streamConfig) { c.name = name }
}

// WithStreamSystemOptions replaces the stream's entire option struct —
// the bridge for callers still building a SystemOptions by hand.
func WithStreamSystemOptions(opt SystemOptions) StreamOption {
	return func(c *streamConfig) { c.opt = opt }
}

// WithStreamFPS sets the stream's camera frame rate (the paper runs
// at 50).
func WithStreamFPS(fps int) StreamOption {
	return func(c *streamConfig) { c.opt.FPS = fps }
}

// WithStreamBitstreamBytes sets the partial bitstream size used by the
// stream's reconfiguration model.
func WithStreamBitstreamBytes(n int) StreamOption {
	return func(c *streamConfig) { c.opt.BitstreamBytes = n }
}

// WithStreamInitial sets the stream's boot lighting condition.
func WithStreamInitial(cond Condition) StreamOption {
	return func(c *streamConfig) { c.opt.Initial = cond }
}

// WithStreamParallelism caps how many of the engine's shared scan
// lanes one of this stream's frames may borrow (n <= 0 means up to
// runtime.NumCPU()). Detection output is identical for every setting.
func WithStreamParallelism(n int) StreamOption {
	return func(c *streamConfig) { c.opt.Parallelism = n }
}

// WithStreamTimingOnly disables software detection for this stream:
// it models frame timing and reconfiguration only.
func WithStreamTimingOnly() StreamOption {
	return func(c *streamConfig) { c.opt.RunDetectors = false }
}

// WithStreamSenseFromImage estimates ambient light from frame pixels
// instead of the scene's sensor value.
func WithStreamSenseFromImage() StreamOption {
	return func(c *streamConfig) { c.opt.SenseFromImage = true }
}

// WithStreamTracking runs the Kalman/Hungarian tracker over this
// stream's detections.
func WithStreamTracking() StreamOption {
	return func(c *streamConfig) { c.opt.EnableTracking = true }
}

// WithStreamMetrics attaches a per-stream telemetry registry; the
// stream then also contributes its slot-deadline record to the
// engine's FleetSnapshot capacity rollup.
func WithStreamMetrics() StreamOption {
	return func(c *streamConfig) { c.opt.EnableMetrics = true }
}

// WithStreamFaultPlan installs a fault injector on this stream's
// reconfiguration datapath (see NewFaultPlan).
func WithStreamFaultPlan(p *FaultPlan) StreamOption {
	return func(c *streamConfig) { c.opt.FaultPlan = p }
}

// WithStreamRetryPolicy bounds this stream's reconfiguration watchdog
// and retry/backoff loop.
func WithStreamRetryPolicy(rp RetryPolicy) StreamOption {
	return func(c *streamConfig) { c.opt.Retry = rp }
}

// WithStreamQuantizedScan scores this stream's HOG scans through the
// fixed-point block-response datapath, the model of the PL's DSP48
// integer arithmetic. Its detections equal the float scan's; it runs
// 1.8–3.1× slower than the float early-exit scan at every size
// measured, so it is not a speedup (see WithQuantizedScan).
func WithStreamQuantizedScan() StreamOption {
	return func(c *streamConfig) { c.opt.ScanQuantized = true }
}

// WithStreamTemporalCache reuses this stream's frame stack across its
// consecutive frames (see WithTemporalCache). Each stream gets its own
// cache, so the option is safe on engines whose streams share one
// Detectors value.
func WithStreamTemporalCache() StreamOption {
	return func(c *streamConfig) { c.opt.ScanTemporalCache = true }
}

// WithStreamEventSink subscribes a consumer to this stream's typed
// event stream (see WithEventSink). One sink value may subscribe to
// several streams — EventLog is safe for that — with each event
// carrying the engine-assigned stream id.
func WithStreamEventSink(sink EventSink) StreamOption {
	return func(c *streamConfig) { c.opt.EventSinks = append(c.opt.EventSinks, sink) }
}

// WithStreamLedger enrolls the stream in the engine's shared
// tamper-evident ledger: the stream gets its own hash chain (keyed by
// its engine-assigned id) inside the one engine-level ledger, whose
// Merkle batches interleave all enrolled streams under a single
// anchor chain and are sealed by size, simulated-time span, or the
// engine's wall-clock sealer (joined and flushed by Engine.Close).
// Access it with Engine.Ledger().
func WithStreamLedger() StreamOption {
	return func(c *streamConfig) { c.ledger = true }
}

// Name returns the stream's fleet label.
func (s *Stream) Name() string { return s.name }

// System exposes the stream's underlying adaptive System for advanced
// inspection (trace, platform, monitor). Do not call its Process
// methods directly while also using Stream.Process: the stream
// serializes frames and routes them through the engine's worker pool;
// bypassing it races.
func (s *Stream) System() *System { return s.sys }

// Stats returns the stream's accumulated counters.
func (s *Stream) Stats() Stats { return s.sys.Stats() }

// Loaded returns the configuration currently resident on this stream's
// reconfigurable partition.
func (s *Stream) Loaded() ConfigID { return s.sys.Loaded() }

// Mode returns the stream's resilience mode (nominal or degraded).
func (s *Stream) Mode() Mode { return s.sys.Mode() }

// Snapshot exports the stream's telemetry registry (zero-valued with
// Enabled=false unless WithStreamMetrics was given).
func (s *Stream) Snapshot() MetricsSnapshot { return s.sys.Snapshot() }

// Process runs one frame through the engine: the frame is admitted
// against the engine's bounded queue (failing fast with ErrOverloaded
// beyond capacity), waits for a free executor slot, and runs on the
// calling goroutine with the stream's own adaptive state. Frames on
// one stream are processed strictly in order; concurrent Process
// calls on different streams multiplex over the executor slots.
//
// The returned errors are errors.Is-matchable: ErrOverloaded (queue
// full), ErrStreamClosed (after Close), ErrEngineClosed (engine shut
// down), or the context error if ctx is cancelled while the frame
// waits for a slot or mid-scan.
func (s *Stream) Process(ctx context.Context, sc *Scene) (FrameResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return FrameResult{}, fmt.Errorf("advdet: stream %s: %w", s.name, ErrStreamClosed)
	}
	var res FrameResult
	var ferr error
	tm, err := s.eng.disp.Submit(ctx, func(ctx context.Context) {
		res, ferr = s.sys.ProcessFrameCtx(ctx, sc)
	})
	if err != nil {
		return FrameResult{}, fmt.Errorf("advdet: stream %s: %w", s.name, err)
	}
	// Attribute the dispatcher wait (admission to a free executor
	// slot) to the stream's telemetry; nil-safe when metrics are off.
	s.sys.Metrics().StageObserve(metrics.StageFleetDispatch, 0, uint64(tm.QueueWait()))
	return res, ferr
}

// RunScenario drives a whole synthetic drive through the stream frame
// by frame. On error the frames completed so far are returned
// alongside it.
func (s *Stream) RunScenario(ctx context.Context, sc *Scenario) ([]FrameResult, error) {
	n := sc.TotalFrames()
	out := make([]FrameResult, 0, n)
	for i := 0; i < n; i++ {
		res, err := s.Process(ctx, sc.FrameAt(i))
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Close detaches the stream from the engine's capacity rollup and
// fails all further Process calls with ErrStreamClosed. It does not
// stop the engine; other streams are unaffected.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.eng.rollup.Detach(s.name)
}
