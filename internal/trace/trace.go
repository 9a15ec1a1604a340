// Package trace records timestamped simulation events — the software
// stand-in for the ARM performance event counters and the Vivado
// integrated logic analyzer (ILA) the paper uses to measure its
// reconfiguration throughput (§IV-A).
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event is one timestamped record. Time is in picoseconds of simulated
// time, matching the SoC model's clock resolution.
type Event struct {
	PS     uint64 // simulated time in picoseconds
	Source string // component name, e.g. "pr-controller"
	Name   string // event name, e.g. "dma-start"
	Detail string
}

// Tracer collects events. The zero value is ready to use and keeps
// every event; a tracer made by New keeps only the most recent ones.
// It is safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	// limit bounds len(events) (0: unbounded). Once full, events is a
	// ring whose oldest entry is at head.
	limit int
	head  int
}

// New returns a tracer that keeps the most recent limit events,
// overwriting the oldest once full, so a long-running platform's trace
// stays a fixed size; limit <= 0 keeps every event.
func New(limit int) *Tracer {
	return &Tracer{limit: max(limit, 0)}
}

// Record appends an event, overwriting the oldest one when the tracer
// is bounded and full.
func (t *Tracer) Record(ps uint64, source, name, detail string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Event{PS: ps, Source: source, Name: name, Detail: detail}
	if t.limit > 0 && len(t.events) == t.limit {
		t.events[t.head] = e
		t.head = (t.head + 1) % t.limit
		return
	}
	t.events = append(t.events, e) // lint:alloc grows to the tracer's bound once; a bounded tracer then overwrites in place
}

// Unbound makes the tracer keep every event from now on, starting from
// the events it retains.
func (t *Tracer) Unbound() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events, t.head, t.limit = t.ordered(), 0, 0
}

// ordered returns the retained events in record order, oldest first,
// in a fresh slice. The caller holds t.mu.
func (t *Tracer) ordered() []Event {
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	return append(out, t.events[:t.head]...)
}

// Events returns a copy of the retained events in time order.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.ordered()
	sort.SliceStable(out, func(i, j int) bool { return out[i].PS < out[j].PS })
	return out
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Reset discards all events.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events, t.head = nil, 0
}

// Span returns the time between the first event named start and the
// next event named end after it (both from the given source; empty
// source matches any). ok is false if no such pair exists.
func (t *Tracer) Span(source, start, end string) (ps uint64, ok bool) {
	evs := t.Events()
	for i, e := range evs {
		if e.Name != start || (source != "" && e.Source != source) {
			continue
		}
		for _, f := range evs[i+1:] {
			if f.Name == end && (source == "" || f.Source == source) {
				return f.PS - e.PS, true
			}
		}
		return 0, false
	}
	return 0, false
}

// Count returns how many events carry the given name.
func (t *Tracer) Count(name string) int {
	n := 0
	for _, e := range t.Events() {
		if e.Name == name {
			n++
		}
	}
	return n
}

// WriteCSV dumps the retained events as CSV (ps,source,name,detail).
func (t *Tracer) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "ps,source,name,detail"); err != nil {
		return err
	}
	for _, e := range t.Events() {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s\n", e.PS, e.Source, e.Name, e.Detail); err != nil {
			return err
		}
	}
	return nil
}
