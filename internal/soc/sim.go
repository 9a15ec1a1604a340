// Package soc models the Zynq-7000 system-on-chip platform of the
// paper at the transaction level: a discrete-event simulation core,
// clock domains for the processing system (PS) and programmable logic
// (PL), DDR3 memory ports, and the high-performance (HP) and
// general-purpose (GP) AXI port bandwidth characteristics that
// determine the reconfiguration throughputs of §IV-A.
//
// The model is cycle-approximate: transfers are costed per burst with
// structural overhead parameters (interconnect stalls, transaction
// setup), from which the paper's measured throughputs emerge rather
// than being hard-coded.
//
// lint:simtime
package soc

import "fmt"

// Sim is a discrete-event simulator with picosecond resolution.
// The zero value is ready to use.
type Sim struct {
	now   uint64
	queue eventQueue
	seq   uint64 // tie-break so same-time events run in schedule order
}

type simEvent struct {
	at  uint64
	seq uint64
	fn  func()
}

// eventQueue is a binary min-heap of events ordered by (at, seq). It
// holds simEvent values directly, so pushing and popping box nothing.
type eventQueue []simEvent

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

// push adds e, sifting it up to its place.
func (q *eventQueue) push(e simEvent) {
	*q = append(*q, e) // lint:alloc grows the event queue to its high-water mark once
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() simEvent {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	h[n] = simEvent{} // the popped callback is not pinned by the backing array
	*q = h[:n]
	return e
}

// Now returns the current simulated time in picoseconds.
func (s *Sim) Now() uint64 { return s.now }

// Schedule runs fn after delay picoseconds of simulated time.
func (s *Sim) Schedule(delay uint64, fn func()) {
	s.queue.push(simEvent{at: s.now + delay, seq: s.seq, fn: fn})
	s.seq++
}

// Run processes events until the queue is empty and returns the final
// simulated time.
func (s *Sim) Run() uint64 {
	for len(s.queue) > 0 {
		e := s.queue.pop()
		s.now = e.at
		e.fn()
	}
	return s.now
}

// RunUntil processes events with timestamps <= deadline (events
// scheduled during execution included), then sets the clock to the
// deadline if it has not advanced past it.
func (s *Sim) RunUntil(deadline uint64) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		e := s.queue.pop()
		s.now = e.at
		e.fn()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }

// Clock is a frequency domain.
type Clock struct {
	Name   string
	FreqHz uint64
}

// PeriodPS returns the clock period in picoseconds (rounded).
func (c Clock) PeriodPS() uint64 {
	if c.FreqHz == 0 {
		// lint:invariant clocks are package constants; zero frequency is a construction bug
		panic(fmt.Sprintf("soc: clock %q has zero frequency", c.Name)) // lint:alloc invariant panic path
	}
	return 1_000_000_000_000 / c.FreqHz
}

// CyclesPS returns the duration of n cycles in picoseconds.
func (c Clock) CyclesPS(n uint64) uint64 { return n * c.PeriodPS() }

// PSToCycles converts a picosecond duration to whole cycles
// (rounding up).
func (c Clock) PSToCycles(ps uint64) uint64 {
	p := c.PeriodPS()
	return (ps + p - 1) / p
}

// Standard Zynq-7000 clock domains as configured in the paper's
// system (PL detection fabric at 125 MHz, configuration logic at
// 100 MHz).
var (
	ClkPS  = Clock{Name: "ps-cpu", FreqHz: 666_666_666}
	ClkPL  = Clock{Name: "pl-fabric", FreqHz: 125_000_000}
	ClkCfg = Clock{Name: "cfg", FreqHz: 100_000_000}
	ClkHP  = Clock{Name: "hp-port", FreqHz: 150_000_000}
	ClkDDR = Clock{Name: "ddr", FreqHz: 533_000_000}
)

// Seconds converts picoseconds to seconds.
func Seconds(ps uint64) float64 { return float64(ps) * 1e-12 }

// MBPerSec returns throughput in MB/s (10^6 bytes) for bytes moved in
// ps picoseconds.
func MBPerSec(bytes int, ps uint64) float64 {
	if ps == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / Seconds(ps)
}
