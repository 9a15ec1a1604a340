package advdet

// Option configures a System at construction time. Options are
// applied in order on top of DefaultSystemOptions, so later options
// win; WithOptions replaces the whole struct and is therefore usually
// first when mixed with field options.
type Option func(*SystemOptions)

// WithOptions replaces the entire option struct — the bridge for
// callers still building a SystemOptions by hand.
func WithOptions(opt SystemOptions) Option {
	return func(o *SystemOptions) { *o = opt }
}

// WithFPS sets the camera frame rate (the paper runs at 50).
func WithFPS(fps int) Option {
	return func(o *SystemOptions) { o.FPS = fps }
}

// WithBitstreamBytes sets the partial bitstream size used by the
// reconfiguration model.
func WithBitstreamBytes(n int) Option {
	return func(o *SystemOptions) { o.BitstreamBytes = n }
}

// WithInitial sets the boot lighting condition.
func WithInitial(c Condition) Option {
	return func(o *SystemOptions) { o.Initial = c }
}

// WithParallelism bounds the detection worker pool — the software
// model of the PL's replicated window-evaluation lanes. n <= 0 means
// runtime.NumCPU(); 1 runs every scan on the calling goroutine.
// Detection output is identical for every setting.
func WithParallelism(n int) Option {
	return func(o *SystemOptions) { o.Parallelism = n }
}

// WithTimingOnly disables software detection: the system models frame
// timing and reconfiguration only, for long timing-focused scenarios.
func WithTimingOnly() Option {
	return func(o *SystemOptions) { o.RunDetectors = false }
}

// WithSenseFromImage estimates ambient light from frame pixels
// instead of the scene's sensor value — the fallback for platforms
// without the paper's external light sensor.
func WithSenseFromImage() Option {
	return func(o *SystemOptions) { o.SenseFromImage = true }
}

// WithTracking runs the Kalman/Hungarian tracker over detections;
// confirmed tracks appear in FrameResult.Tracks and coast through the
// one-frame reconfiguration dropout.
func WithTracking() Option {
	return func(o *SystemOptions) { o.EnableTracking = true }
}

// WithMetrics attaches the frame-budget telemetry registry: per-stage
// counters and histograms in simulated and wall time plus
// slot-deadline accounting, read back through System.Snapshot or
// System.Metrics. Disabled (the default), the per-frame path performs
// no metrics work at all.
func WithMetrics() Option {
	return func(o *SystemOptions) { o.EnableMetrics = true }
}

// WithFaultPlan installs a fault injector on the reconfiguration
// datapath: staging CRC corruption, PR DMA stalls and aborts, dropped
// PR-done interrupts and failed model-bank selects (see NewFaultPlan).
// A nil plan — the default — injects nothing at zero cost.
func WithFaultPlan(p *FaultPlan) Option {
	return func(o *SystemOptions) { o.FaultPlan = p }
}

// WithRetryPolicy bounds the reconfiguration watchdog and
// retry/backoff loop. Zero fields are filled from
// DefaultRetryPolicy, so partial policies tweak one knob at a time.
func WithRetryPolicy(rp RetryPolicy) Option {
	return func(o *SystemOptions) { o.Retry = rp }
}

// WithQuantizedScan scores the HOG scans through the int16/int32
// fixed-point block-response datapath: the model of the integer
// arithmetic of the PL's DSP48 window evaluators. Detections are
// identical to the float scan, boxes and scores: the integer datapath
// only rejects windows its analytic error bound proves below
// threshold, and every other window re-scores through the float path.
// It is a fidelity model, not a speedup: on the host it runs 1.8–3.1×
// slower than the default float early-exit scan at every frame size
// measured, 640×360 to 3840×2160. Models whose weights exceed the
// quantizer's range fall back to the float path silently.
func WithQuantizedScan() Option {
	return func(o *SystemOptions) { o.ScanQuantized = true }
}

// WithTemporalCache reuses the system's HOG frame stack — feature maps,
// block grids, and each sweep's window rows — across consecutive
// frames, fingerprinting the frame
// in 64x64 tiles and recomputing only what each frame's changed tiles
// invalidate — the software rendition of persistent BRAM line buffers
// surviving between frames in the PL. Detection output is
// byte-identical to a cold scan of every frame; on static-camera
// footage the warm-frame scan cost drops by the fraction of tiles
// unchanged. The cache belongs to the system, survives day/dusk model
// selects, and is invalidated whenever a partial reconfiguration is
// requested.
func WithTemporalCache() Option {
	return func(o *SystemOptions) { o.ScanTemporalCache = true }
}

// WithEventSink subscribes a consumer to the system's unified typed
// event stream: every frame verdict, model select, reconfiguration
// outcome, fault and mode transition, as Event values with stream id,
// frame index and simulated-ps timestamp. Sinks are invoked
// synchronously on the frame-processing goroutine in deterministic
// order; delivery allocates nothing. May be given multiple times.
func WithEventSink(sink EventSink) Option {
	return func(o *SystemOptions) { o.EventSinks = append(o.EventSinks, sink) }
}

// WithLedger attaches a tamper-evident ledger to a standalone system:
// every event's canonical encoding is appended to a hash chain and
// Merkle-batched (size-or-simulated-deadline sealing). Detection
// output is byte-identical with the ledger on, and the scan hot path
// stays within its allocation budget. Read it back with
// System.Ledger(); NewSystem still spawns no goroutines, so the
// wall-clock sealer is engine-only — call Ledger.SealOpen to flush
// the tail before serializing. Passing nil installs a
// default-configured ledger.
func WithLedger(led *Ledger) Option {
	return func(o *SystemOptions) {
		if led == nil {
			led = NewLedger(LedgerConfig{})
		}
		o.Ledger = led
	}
}
