package adaptive

import (
	"errors"

	"advdet/internal/metrics"
	"advdet/internal/pr"
)

// This file routes the event stream to its consumers. emit is the
// single choke point: it stamps the event with stream/frame/timestamp
// and fans it out to (1) the derived Stats views, (2) the metrics
// registry, (3) the user's EventSinks, (4) the ledger. Stats.FaultLog
// and the fault/mode metrics counters are therefore projections of the
// same stream any external sink sees — one source of truth.
//
// The fan-out is allocation-free: Event travels by value, the ledger
// encodes into a reusable per-system scratch buffer, and with nothing
// attached the whole path is a few nil checks.

// emit stamps and delivers one event. Callers fill Kind and the active
// payload only.
func (s *System) emit(ev Event) {
	ev.Stream = s.Opt.StreamID
	ev.Frame = int32(s.frameIdx)
	ev.PS = s.Z.Sim.Now()
	s.applyStats(ev)
	s.applyMetrics(ev)
	for _, sink := range s.sinks {
		sink.Emit(ev)
	}
	if s.led != nil {
		s.ledBuf = ev.AppendBinary(s.ledBuf[:0])
		s.led.Append(ev.Stream, ev.PS, s.ledBuf)
	}
}

// applyStats maintains the legacy derived views: Stats.FaultLog is the
// projection of EvFault events that carry an error (kept for
// compatibility; subscribe an EventSink for the full stream).
func (s *System) applyStats(ev Event) {
	if ev.Kind != EvFault || ev.Fault.Err == nil {
		return
	}
	s.stats.FaultLog = append(s.stats.FaultLog, FaultRecord{ // lint:alloc one record per fault event, not per frame
		PS:      ev.PS,
		Frame:   int(ev.Frame),
		Target:  ev.Fault.Target,
		Attempt: int(ev.Fault.Attempt),
		Err:     ev.Fault.Err,
	})
}

// applyMetrics projects the event stream onto the telemetry registry —
// the fault counters, reconfiguration stages and mode gauge are views
// of the same events every other sink receives. Nil-safe via the
// registry's nil-receiver contract, but guarded anyway to skip the
// switch entirely when metrics are off.
func (s *System) applyMetrics(ev Event) {
	if s.metrics == nil {
		return
	}
	switch ev.Kind {
	case EvFrame:
		if ev.Verdict.VehicleStale {
			s.metrics.FaultAdd(metrics.FaultStaleVehicleFrame)
		}
		if ev.Verdict.Mode == ModeDegraded {
			s.metrics.FaultAdd(metrics.FaultDegradedFrame)
		}
	case EvModelSwitch:
		s.metrics.StageObserve(metrics.StageModelSelect, 0, 0)
	case EvReconfig:
		switch ev.Reconfig.Phase {
		case ReconfigCompleted:
			s.metrics.StageObserve(metrics.StageReconfig, ev.Reconfig.ElapsedPS, 0)
		case ReconfigRetryScheduled:
			s.metrics.FaultAdd(metrics.FaultRetry)
			s.metrics.StageObserve(metrics.StageReconfigFault, ev.Reconfig.ElapsedPS, 0)
		}
	case EvFault:
		switch ev.Fault.Code {
		case FaultCodeVerify:
			s.metrics.FaultAdd(metrics.FaultVerify)
		case FaultCodeTimeout:
			s.metrics.FaultAdd(metrics.FaultWatchdog)
		case FaultCodeBankSelect:
			s.metrics.FaultAdd(metrics.FaultBankSelect)
		case FaultCodeIRQDrop:
			s.metrics.FaultAdd(metrics.FaultIRQDrop)
		}
	case EvModeChange:
		s.metrics.SetGauge(metrics.GaugeMode, uint64(ev.ModeChange.To))
	}
}

// faultCodeFor classifies a reconfiguration error into its encodable
// FaultCode via the typed sentinels.
func faultCodeFor(err error) FaultCode {
	switch {
	case errors.Is(err, pr.ErrVerify):
		return FaultCodeVerify
	case errors.Is(err, pr.ErrTimeout):
		return FaultCodeTimeout
	case errors.Is(err, pr.ErrBusy):
		return FaultCodeBusy
	case errors.Is(err, ErrBankSelect):
		return FaultCodeBankSelect
	default:
		return FaultCodeOther
	}
}
