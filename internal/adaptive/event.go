package adaptive

import (
	"encoding/binary"
	"sync"

	"advdet/internal/synth"
)

// This file is the unified typed event stream: the one subscribable
// surface for everything the adaptive system decides or suffers.
// Before it, the audit record was scattered — faults in
// Stats.FaultLog, injection events in fault.Plan.Events(), reconfig
// and mode data in metrics gauges. Now every frame verdict, model
// select, reconfiguration outcome, fault and mode transition is
// emitted as one Event value, and the legacy surfaces (FaultLog, the
// fault/mode metrics counters) are derived views of the same stream.
//
// Event is a flat struct with a Kind discriminator rather than a
// sealed interface: emitting one must not allocate (no boxing), so the
// detection hot path stays zero-alloc with sinks attached.

// EventKind discriminates the Event sum.
type EventKind int32

const (
	// EvFrame: a frame completed — the per-frame verdict (condition,
	// detection counts, dropped/stale flags, end-of-frame mode).
	EvFrame EventKind = iota
	// EvModelSwitch: a day<->dusk BRAM model select landed (no
	// reconfiguration, no dropped frame).
	EvModelSwitch
	// EvReconfig: a reconfiguration state-machine transition; see
	// ReconfigPhase for which one.
	EvReconfig
	// EvFault: a fault on the reconfiguration datapath (CRC verify,
	// watchdog timeout, bank select, dropped PR-done IRQ).
	EvFault
	// EvModeChange: the resilience mode moved
	// (nominal/recovering/degraded).
	EvModeChange
	// NumEventKinds bounds the kind space.
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	"frame", "model-switch", "reconfig", "fault", "mode-change",
}

func (k EventKind) String() string {
	if k < 0 || k >= NumEventKinds {
		return "unknown"
	}
	return eventKindNames[k]
}

// ReconfigPhase names the reconfiguration state-machine transitions an
// EvReconfig event reports.
type ReconfigPhase int32

const (
	// ReconfigRequested: a transition to a new target opened (or an
	// in-flight one retargeted).
	ReconfigRequested ReconfigPhase = iota
	// ReconfigLaunched: one attempt started streaming the bitstream.
	ReconfigLaunched
	// ReconfigCompleted: PR-done landed; ElapsedPS is the request-to-
	// done latency.
	ReconfigCompleted
	// ReconfigRetryScheduled: an attempt failed and the next one is
	// booked; ElapsedPS is the backoff delay.
	ReconfigRetryScheduled
	// ReconfigCancelled: the condition reverted to the loaded
	// configuration before a retry landed.
	ReconfigCancelled
	// NumReconfigPhases bounds the phase space.
	NumReconfigPhases
)

var reconfigPhaseNames = [NumReconfigPhases]string{
	"requested", "launched", "completed", "retry-scheduled", "cancelled",
}

func (p ReconfigPhase) String() string {
	if p < 0 || p >= NumReconfigPhases {
		return "unknown"
	}
	return reconfigPhaseNames[p]
}

// FaultCode classifies an EvFault event. Fault.Err carries the
// wrapped typed sentinel for errors.Is dispatch; the code is the
// encodable, switchable classification of the same thing.
type FaultCode int32

const (
	// FaultCodeVerify: a staged bitstream failed the CRC pass
	// (pr.ErrVerify).
	FaultCodeVerify FaultCode = iota
	// FaultCodeTimeout: the PR-done watchdog expired (pr.ErrTimeout).
	FaultCodeTimeout
	// FaultCodeBusy: the ICAP DMA was busy at launch (pr.ErrBusy).
	FaultCodeBusy
	// FaultCodeBankSelect: a BRAM model-select write failed
	// (ErrBankSelect).
	FaultCodeBankSelect
	// FaultCodeIRQDrop: a PR-done interrupt assertion was lost at the
	// controller. No error value accompanies it (the loss is observed
	// from the platform's drop counter), so these events do not appear
	// in the derived Stats.FaultLog.
	FaultCodeIRQDrop
	// FaultCodeOther: an unclassified reconfiguration error.
	FaultCodeOther
	// NumFaultCodes bounds the code space.
	NumFaultCodes
)

var faultCodeNames = [NumFaultCodes]string{
	"verify", "timeout", "busy", "bank-select", "irq-drop", "other",
}

func (c FaultCode) String() string {
	if c < 0 || c >= NumFaultCodes {
		return "unknown"
	}
	return faultCodeNames[c]
}

// FrameEvent is the EvFrame payload: one frame's verdict.
type FrameEvent struct {
	Cond            synth.Condition
	Vehicles        int32
	Pedestrians     int32
	VehicleDropped  bool
	VehicleStale    bool
	ReconfigStarted bool
	Mode            Mode
}

// ModelSwitchEvent is the EvModelSwitch payload.
type ModelSwitchEvent struct {
	Slot int32 // BRAM bank selected: 0 day, 1 dusk
	Cond synth.Condition
}

// ReconfigEvent is the EvReconfig payload.
type ReconfigEvent struct {
	Phase    ReconfigPhase
	From, To ConfigID
	Attempt  int32
	// ElapsedPS: request-to-done latency for ReconfigCompleted, backoff
	// delay for ReconfigRetryScheduled, zero otherwise.
	ElapsedPS uint64
}

// FaultEvent is the EvFault payload. Err wraps the typed sentinel
// (pr.ErrVerify, pr.ErrTimeout, pr.ErrBusy, ErrBankSelect) when one
// exists; Code is the same classification in encodable form.
type FaultEvent struct {
	Code    FaultCode
	Target  ConfigID
	Attempt int32
	Err     error
}

// ModeChangeEvent is the EvModeChange payload.
type ModeChangeEvent struct {
	From, To Mode
}

// Event is the typed event-stream sum: Kind selects which payload
// field is meaningful, and every event carries its stream id, frame
// index and simulated-picosecond timestamp. Events are plain values —
// delivering one allocates nothing and sinks may retain them freely.
type Event struct {
	Kind   EventKind
	Stream int32
	Frame  int32
	PS     uint64

	Verdict     FrameEvent       // EvFrame
	ModelSwitch ModelSwitchEvent // EvModelSwitch
	Reconfig    ReconfigEvent    // EvReconfig
	Fault       FaultEvent       // EvFault
	ModeChange  ModeChangeEvent  // EvModeChange
}

// EventSink receives the system's event stream. Emit is called
// synchronously on the frame-processing goroutine (frames on one
// stream are serialized, so per-stream event order is deterministic);
// implementations must return quickly and must not call back into the
// emitting System.
type EventSink interface {
	Emit(ev Event)
}

// AppendBinary appends the event's canonical binary encoding to dst
// and returns the extended slice. This is the byte string the ledger
// hashes, so it is total (every field of the active variant is
// encoded) and deterministic: fixed-width big-endian fields, with the
// fault error flattened to its message bytes.
func (ev Event) AppendBinary(dst []byte) []byte {
	var h [20]byte
	binary.BigEndian.PutUint32(h[0:], uint32(ev.Kind))
	binary.BigEndian.PutUint32(h[4:], uint32(ev.Stream))
	binary.BigEndian.PutUint32(h[8:], uint32(ev.Frame))
	binary.BigEndian.PutUint64(h[12:], ev.PS)
	dst = append(dst, h[:]...) // lint:alloc grows the caller's reused encode buffer to its high-water mark once
	switch ev.Kind {
	case EvFrame:
		var flags uint32
		if ev.Verdict.VehicleDropped {
			flags |= 1
		}
		if ev.Verdict.VehicleStale {
			flags |= 2
		}
		if ev.Verdict.ReconfigStarted {
			flags |= 4
		}
		dst = appendU32s(dst, uint32(ev.Verdict.Cond), uint32(ev.Verdict.Vehicles),
			uint32(ev.Verdict.Pedestrians), flags, uint32(ev.Verdict.Mode))
	case EvModelSwitch:
		dst = appendU32s(dst, uint32(ev.ModelSwitch.Slot), uint32(ev.ModelSwitch.Cond))
	case EvReconfig:
		dst = appendU32s(dst, uint32(ev.Reconfig.Phase), uint32(ev.Reconfig.From),
			uint32(ev.Reconfig.To), uint32(ev.Reconfig.Attempt))
		var e [8]byte
		binary.BigEndian.PutUint64(e[:], ev.Reconfig.ElapsedPS)
		dst = append(dst, e[:]...) // lint:alloc grows the caller's reused encode buffer to its high-water mark once
	case EvFault:
		dst = appendU32s(dst, uint32(ev.Fault.Code), uint32(ev.Fault.Target),
			uint32(ev.Fault.Attempt))
		msg := ""
		if ev.Fault.Err != nil {
			msg = ev.Fault.Err.Error()
		}
		dst = appendU32s(dst, uint32(len(msg)))
		dst = append(dst, msg...) // lint:alloc grows the caller's reused encode buffer to its high-water mark once
	case EvModeChange:
		dst = appendU32s(dst, uint32(ev.ModeChange.From), uint32(ev.ModeChange.To))
	}
	return dst
}

func appendU32s(dst []byte, vs ...uint32) []byte {
	var b [4]byte
	for _, v := range vs {
		binary.BigEndian.PutUint32(b[:], v)
		dst = append(dst, b[:]...) // lint:alloc grows the caller's reused encode buffer to its high-water mark once
	}
	return dst
}

// EventLog is a ready-made recording sink: it accumulates every event
// it receives. Safe for concurrent use, so one EventLog may subscribe
// to several streams of an engine; reads return copies, never views of
// internal state.
type EventLog struct {
	mu     sync.Mutex
	events []Event
}

// NewEventLog returns an empty recording sink.
func NewEventLog() *EventLog { return &EventLog{} }

// Emit implements EventSink.
func (l *EventLog) Emit(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev) // lint:alloc the log retains every event by design; amortized growth
	l.mu.Unlock()
}

// Len returns how many events have been recorded.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of everything recorded, in arrival order.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Kind returns a copy of the recorded events of one kind, in order.
func (l *EventLog) Kind(k EventKind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, ev := range l.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// FaultRecords derives the legacy Stats.FaultLog view from the
// recorded stream: one FaultRecord per EvFault event that carries an
// error, in order — byte-for-byte what the emitting system accumulates
// in its own Stats.
func (l *EventLog) FaultRecords() []FaultRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []FaultRecord
	for _, ev := range l.events {
		if ev.Kind == EvFault && ev.Fault.Err != nil {
			out = append(out, FaultRecord{
				PS:      ev.PS,
				Frame:   int(ev.Frame),
				Target:  ev.Fault.Target,
				Attempt: int(ev.Fault.Attempt),
				Err:     ev.Fault.Err,
			})
		}
	}
	return out
}
