package adaptive

import (
	"errors"
	"fmt"

	"advdet/internal/pr"
	"advdet/internal/soc"
	"advdet/internal/synth"
)

// Mode is the resilience state of the adaptive system. The paper's
// static/PR split guarantees the static partition (pedestrian
// detection) regardless of what happens to the reconfigurable one;
// Mode reports how well the reconfigurable side is doing.
type Mode int

const (
	// ModeNominal: the loaded configuration matches the condition, or a
	// first-attempt reconfiguration is in flight.
	ModeNominal Mode = iota
	// ModeRecovering: a reconfiguration has failed at least once and
	// retries are running within budget; vehicle detection serves the
	// last-good resident model.
	ModeRecovering
	// ModeDegraded: the retry budget is exhausted. The system keeps
	// serving — static partition every frame, last-good vehicle model —
	// and keeps retrying at the capped backoff cadence, recovering
	// automatically on the next successful switch.
	ModeDegraded
)

var modeNames = [...]string{"nominal", "recovering", "degraded"}

func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return "unknown"
	}
	return modeNames[m]
}

// ErrBankSelect is the typed failure of a BRAM model-bank select
// write (fault-injected; the system degrades to the previously active
// model and retries on the next frame).
var ErrBankSelect = errors.New("model-bank select failed")

// RetryPolicy bounds the reconfiguration watchdog and retry/backoff
// loop. All durations are simulated picoseconds: resilience timing
// lives on the platform clock, not the host's.
type RetryPolicy struct {
	// WatchdogPS is the deadline for the PR-done interrupt after a
	// reconfiguration launches. Zero selects the default.
	WatchdogPS uint64
	// MaxRetries is the retry budget before the system reports
	// ModeDegraded. Retries beyond it continue at the capped backoff
	// cadence (the degraded system still wants to recover).
	MaxRetries int
	// BackoffPS is the delay before the first retry; each further
	// retry doubles (BackoffMult) up to MaxBackoffPS.
	BackoffPS uint64
	// BackoffMult multiplies the backoff per retry (0 means 2).
	BackoffMult uint64
	// MaxBackoffPS caps the backoff growth.
	MaxBackoffPS uint64
}

// DefaultRetryPolicy matches the paper's timing: an 8 MB bitstream
// streams in ~20.5 ms, so the watchdog allows 1.5x that; the backoff
// starts at one tenth of a 50 fps frame slot and caps at two slots.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		WatchdogPS:   31_000_000_000, // 31 ms
		MaxRetries:   3,
		BackoffPS:    2_000_000_000, // 2 ms
		BackoffMult:  2,
		MaxBackoffPS: 40_000_000_000, // 40 ms
	}
}

// withDefaults fills zero fields so a zero-valued policy in Options
// means "the default policy".
func (rp RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if rp.WatchdogPS == 0 {
		rp.WatchdogPS = def.WatchdogPS
	}
	if rp.MaxRetries == 0 {
		rp.MaxRetries = def.MaxRetries
	}
	if rp.BackoffPS == 0 {
		rp.BackoffPS = def.BackoffPS
	}
	if rp.BackoffMult == 0 {
		rp.BackoffMult = def.BackoffMult
	}
	if rp.MaxBackoffPS == 0 {
		rp.MaxBackoffPS = def.MaxBackoffPS
	}
	return rp
}

// backoffFor returns the delay before the retry-th attempt (1-based),
// with exponential growth capped at MaxBackoffPS.
func (rp RetryPolicy) backoffFor(retry int) uint64 {
	b := rp.BackoffPS
	for i := 1; i < retry; i++ {
		if b >= rp.MaxBackoffPS/rp.BackoffMult {
			return rp.MaxBackoffPS
		}
		b *= rp.BackoffMult
	}
	if b > rp.MaxBackoffPS {
		return rp.MaxBackoffPS
	}
	return b
}

// FaultRecord is one reconfiguration fault observed by the system.
// Err wraps a typed sentinel (pr.ErrVerify, pr.ErrTimeout, pr.ErrBusy
// or ErrBankSelect), so errors.Is dispatches on it.
type FaultRecord struct {
	PS      uint64
	Frame   int
	Target  ConfigID
	Attempt int
	Err     error
}

// Mode returns the resilience state of the system.
func (s *System) Mode() Mode { return s.mode }

// requestReconfig opens (or retargets) the pending transition to
// target and launches the first attempt. One Reconfiguration record is
// appended per requested transition; retries update its Attempts.
func (s *System) requestReconfig(target ConfigID) {
	if s.pending && s.pendTarget == target {
		return
	}
	s.pending = true
	s.pendTarget = target
	s.retries = 0
	// The hardware analogue of the temporal cache (persistent BRAM line
	// buffers) does not survive a fabric rewrite, and the frame dropped
	// during reconfiguration breaks the consecutive-frame contract the
	// dirty-tile deltas assume.
	s.stack.Invalidate()
	s.recIdx = len(s.stats.Reconfigs)
	s.stats.Reconfigs = append(s.stats.Reconfigs, Reconfiguration{ // lint:alloc one record per reconfiguration, not per frame
		Frame:   s.frameIdx,
		From:    s.loaded,
		To:      target,
		StartPS: s.Z.Sim.Now(),
	})
	s.emit(Event{Kind: EvReconfig,
		Reconfig: ReconfigEvent{Phase: ReconfigRequested, From: s.loaded, To: target}})
	// If a stream to a stale target is in flight, let it finish;
	// onPRDone sees the retarget and relaunches.
	if !s.reconfiguring {
		s.launchAttempt()
	}
}

// launchAttempt starts one reconfiguration attempt toward the pending
// target. Launch failures (verify, busy) are recorded and feed the
// retry loop; a successful launch arms the watchdog.
func (s *System) launchAttempt() {
	if !s.pending || s.reconfiguring {
		return
	}
	target := s.pendTarget
	s.attemptGen++
	gen := s.attemptGen
	s.stats.Reconfigs[s.recIdx].Attempts++
	attempt := s.stats.Reconfigs[s.recIdx].Attempts
	err := s.PR.ReconfigureStaged(s.Z, target.String(), nil)
	if err != nil {
		s.recordFault(target, attempt, err)
		if errors.Is(err, pr.ErrVerify) {
			// The resident image is corrupt: re-stage it from PS DDR
			// (the paper keeps the golden bitstreams there), then back
			// off and retry.
			s.stats.VerifyFailures++
			s.PR.Stage(s.Z, target.String(), s.Opt.BitstreamBytes, func() { s.scheduleRetry() })
			return
		}
		s.scheduleRetry()
		return
	}
	s.reconfiguring = true
	s.inFlightGen = gen
	s.inFlightTarget = target
	s.emit(Event{Kind: EvReconfig,
		Reconfig: ReconfigEvent{Phase: ReconfigLaunched, From: s.loaded, To: target, Attempt: int32(attempt)}})
	wd := s.Opt.Retry.WatchdogPS
	s.Z.Sim.Schedule(wd, func() { s.onWatchdog(gen) })
}

// onPRDone is the PR-done interrupt handler: the completion path of
// every reconfiguration. A completion whose attempt was abandoned by
// the watchdog is stale and ignored.
func (s *System) onPRDone() {
	if s.inFlightGen == 0 {
		return
	}
	s.inFlightGen = 0
	s.reconfiguring = false
	s.loaded = s.inFlightTarget
	now := s.Z.Sim.Now()
	rec := &s.stats.Reconfigs[s.recIdx]
	rec.DonePS = now
	s.emit(Event{Kind: EvReconfig, Reconfig: ReconfigEvent{
		Phase: ReconfigCompleted, From: rec.From, To: s.loaded,
		Attempt: int32(rec.Attempts), ElapsedPS: now - rec.StartPS}})
	switch {
	case s.pending && s.pendTarget == s.loaded:
		s.pending = false
		s.retries = 0
		s.setMode(ModeNominal, "recovered")
	case s.pending:
		// Retargeted while streaming: go after the new target.
		s.launchAttempt()
	}
}

// onWatchdog fires when an attempt's PR-done deadline expires. If the
// attempt is still in flight it is abandoned — the controller's DMA is
// reset — and the retry loop takes over.
func (s *System) onWatchdog(gen uint64) {
	if s.inFlightGen != gen {
		return
	}
	target := s.inFlightTarget
	s.inFlightGen = 0
	s.reconfiguring = false
	s.PR.Abort()
	s.stats.WatchdogTrips++
	err := fmt.Errorf("adaptive: reconfiguration to %s: PR-done not seen within %d ps: %w", // lint:alloc cold fault path; a watchdog trip
		target, s.Opt.Retry.WatchdogPS, pr.ErrTimeout)
	s.recordFault(target, s.stats.Reconfigs[s.recIdx].Attempts, err)
	s.scheduleRetry()
}

// scheduleRetry books the next attempt after the policy's backoff.
// Crossing the retry budget demotes the system to ModeDegraded — it
// keeps retrying at the capped cadence, because a degraded system
// still wants to recover on the next clean switch.
func (s *System) scheduleRetry() {
	if !s.pending {
		return
	}
	s.retries++
	s.stats.Retries++
	if s.retries > s.Opt.Retry.MaxRetries {
		s.setMode(ModeDegraded, s.pendTarget.String())
	}
	backoff := s.Opt.Retry.backoffFor(s.retries)
	s.emit(Event{Kind: EvReconfig, Reconfig: ReconfigEvent{
		Phase: ReconfigRetryScheduled, From: s.loaded, To: s.pendTarget,
		Attempt: int32(s.retries), ElapsedPS: backoff}})
	s.Z.Trace.Record(s.Z.Sim.Now(), "adaptive", "reconfig-retry",
		fmt.Sprintf("retry %d in %d ps", s.retries, backoff)) // lint:alloc cold fault path; one detail per reconfiguration retry
	s.Z.Sim.Schedule(backoff, func() { s.launchAttempt() })
}

// cancelPending drops the pending transition: the condition reverted
// to the loaded configuration before a retry landed, so there is
// nothing left to recover toward.
func (s *System) cancelPending() {
	s.emit(Event{Kind: EvReconfig,
		Reconfig: ReconfigEvent{Phase: ReconfigCancelled, From: s.loaded, To: s.pendTarget}})
	s.pending = false
	s.retries = 0
	s.setMode(ModeNominal, "condition reverted")
}

// recordFault emits one fault into the event stream (which projects
// it into Stats.FaultLog and the metrics fault counters), traces it,
// and moves a nominal system into ModeRecovering — the fault is the
// moment recovery starts.
func (s *System) recordFault(target ConfigID, attempt int, err error) {
	s.emit(Event{Kind: EvFault, Fault: FaultEvent{
		Code:    faultCodeFor(err),
		Target:  target,
		Attempt: int32(attempt),
		Err:     err,
	}})
	s.Z.Trace.Record(s.Z.Sim.Now(), "adaptive", "reconfig-fault", err.Error())
	if s.mode == ModeNominal {
		s.setMode(ModeRecovering, target.String())
	}
}

// setMode transitions the resilience mode, tracing it and emitting the
// change (the mode gauge is a projection of the event).
func (s *System) setMode(m Mode, detail string) {
	if s.mode == m {
		return
	}
	from := s.mode
	s.mode = m
	s.Z.Trace.Record(s.Z.Sim.Now(), "adaptive", "mode-"+m.String(), detail)
	s.emit(Event{Kind: EvModeChange, ModeChange: ModeChangeEvent{From: from, To: m}})
}

// residentCondition maps the loaded configuration to the condition
// whose detector is actually resident — what the vehicle path serves
// while the wanted switch is failing.
func (s *System) residentCondition() synth.Condition {
	if s.loaded == CfgDark {
		return synth.Dark
	}
	if s.bank != nil {
		if _, name := s.bank.Active(); name == "dusk" {
			return synth.Dusk
		}
	}
	return synth.Day
}

// syncIRQDrops folds platform-level dropped-interrupt counts into the
// event stream (the IRQ controller cannot emit itself): one
// FaultCodeIRQDrop event per newly observed drop, which the metrics
// projection counts. The loss carries no error value, so these events
// do not enter the derived Stats.FaultLog.
func (s *System) syncIRQDrops() {
	d := s.Z.IRQ.Dropped(soc.IRQPRDone)
	for s.seenIRQDrops < d {
		s.seenIRQDrops++
		s.emit(Event{Kind: EvFault, Fault: FaultEvent{Code: FaultCodeIRQDrop, Target: s.inFlightTarget}})
	}
}
