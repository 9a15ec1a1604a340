// Package fleet multiplexes N concurrent camera streams over one
// shared, bounded pool of executor slots. Admission is bounded with
// backpressure — once QueueDepth admitted items are waiting for a
// slot, Submit fails fast with the typed ErrOverloaded instead of
// queueing unboundedly — and an admitted item runs on its submitter's
// own goroutine the moment one of the Workers slots is free, waiting
// submitters taking freed slots in arrival order. Every item carries
// timing stamps (enqueued, started, finished) so callers can attribute
// frame latency to waiting and execution.
//
// The dispatcher is the software analogue of the paper's frame-slot
// arbitration: a fixed fabric (the executor slots) time-shared by
// whichever camera slots have work, each frame starting as soon as the
// fabric is free, with a hard admission bound in place of the camera's
// fixed slot count.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Typed admission errors. Both are %w-wrappable sentinels: match with
// errors.Is, never by substring.
var (
	// ErrOverloaded is returned by Submit when the bounded admission
	// queue is full — the fleet is beyond capacity and the caller
	// should shed the frame (drop, retry later, or degrade) rather
	// than queue it.
	ErrOverloaded = errors.New("fleet: overloaded: admission queue full")

	// ErrClosed is returned by Submit after the dispatcher has been
	// closed.
	ErrClosed = errors.New("fleet: dispatcher closed")

	// ErrStreamClosed is returned when a frame is offered to a stream
	// that has been closed. The sentinel lives here so both the fleet
	// layer and the public stream API share one identity.
	ErrStreamClosed = errors.New("fleet: stream closed")
)

// Config shapes a Dispatcher.
type Config struct {
	// Workers is the number of executor slots: how many items run at
	// once; <= 0 selects runtime.NumCPU().
	Workers int
	// QueueDepth bounds how many admitted items may wait for a slot at
	// once; beyond it Submit fails with ErrOverloaded. <= 0 selects
	// 2×Workers.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	return c
}

// Timing is one item's trip through the dispatcher.
type Timing struct {
	Enqueued time.Time // Submit admitted the item
	Started  time.Time // the item took an executor slot
	Finished time.Time // the item's work function returned
}

// QueueWait is the time the item spent admitted but waiting for an
// executor slot.
func (t Timing) QueueWait() time.Duration { return t.Started.Sub(t.Enqueued) }

// Run is the execution time of the work function itself.
func (t Timing) Run() time.Duration { return t.Finished.Sub(t.Started) }

// Stats are the dispatcher's monotonic counters.
type Stats struct {
	Admitted  uint64 // items accepted past the admission bound
	Rejected  uint64 // items refused with ErrOverloaded
	Executed  uint64 // items whose work function ran
	Abandoned uint64 // items whose submitter gave up before execution
	// Batches counts dispatches: every admitted item is dispatched
	// alone, so it equals Executed.
	Batches uint64
}

// Dispatcher is the shared bounded pool of executor slots. Build with
// NewDispatcher; Submit is safe for concurrent use by any number of
// streams. A Dispatcher spawns no goroutines: every item runs on its
// submitter's.
type Dispatcher struct {
	cfg Config
	// slots is the executor semaphore: a send takes a slot, a receive
	// frees one. Go queues blocked senders FIFO and a receive hands
	// the freed slot straight to the oldest of them, so waiting items
	// start in arrival order.
	slots chan struct{}

	mu     sync.RWMutex // orders closed against in-flight Submit's inflight.Add
	closed bool
	// inflight counts admitted Submits that have not returned; Close
	// waits for it.
	inflight sync.WaitGroup

	// waiting counts admitted items that hold no slot yet: the
	// admission bound.
	waiting atomic.Int64

	admitted  atomic.Uint64
	rejected  atomic.Uint64
	executed  atomic.Uint64
	abandoned atomic.Uint64
}

// NewDispatcher builds a dispatcher with cfg's defaults applied. It
// runs until Close, which waits for every admitted item.
func NewDispatcher(cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	return &Dispatcher{cfg: cfg, slots: make(chan struct{}, cfg.Workers)}
}

// Submit admits one unit of work, waits for a free executor slot and
// runs the work on the calling goroutine, returning once it has
// executed (or once ctx is cancelled while the item still waits for a
// slot). The work function receives the submitter's ctx and must
// honour its cancellation. On success the item's Timing is returned
// for latency attribution. An admitted Submit allocates nothing.
//
// Failure modes, all errors.Is-matchable: a pre-cancelled ctx or one
// cancelled while waiting for a slot wraps the context error; a full
// admission queue wraps ErrOverloaded; a closed dispatcher wraps
// ErrClosed. In every failure case the work function has not run and
// never will.
//
// lint:hotpath
func (d *Dispatcher) Submit(ctx context.Context, run func(context.Context)) (Timing, error) {
	if err := ctx.Err(); err != nil {
		return Timing{}, fmt.Errorf("fleet: submit: %w", err) // lint:alloc cold error path
	}
	tm := Timing{Enqueued: time.Now()}

	// The RLock spans the closed check and inflight.Add so Close
	// (which takes the write lock before waiting) never waits on a
	// group a new Submit is still joining.
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return Timing{}, fmt.Errorf("fleet: submit: %w", ErrClosed) // lint:alloc cold error path
	}
	if d.waiting.Add(1) > int64(d.cfg.QueueDepth) {
		d.waiting.Add(-1)
		d.mu.RUnlock()
		d.rejected.Add(1)
		return Timing{}, fmt.Errorf("fleet: submit: %w", ErrOverloaded) // lint:alloc cold error path
	}
	d.inflight.Add(1)
	d.mu.RUnlock()
	defer d.inflight.Done()
	d.admitted.Add(1)

	select {
	case d.slots <- struct{}{}:
		d.waiting.Add(-1)
	case <-ctx.Done():
		d.waiting.Add(-1)
		d.abandoned.Add(1)
		return Timing{}, fmt.Errorf("fleet: submit: abandoned in queue: %w", ctx.Err()) // lint:alloc cold error path
	}
	defer d.release()
	tm.Started = time.Now()
	run(ctx)
	tm.Finished = time.Now()
	d.executed.Add(1)
	return tm, nil
}

// release frees the caller's executor slot, handing it to the oldest
// waiting submitter if there is one.
func (d *Dispatcher) release() { <-d.slots }

// Close marks the dispatcher closed and waits until every admitted
// item has run or been abandoned. Submit after Close fails with
// ErrClosed. Close is idempotent and safe to call concurrently with
// Submit.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.inflight.Wait()
}

// Stats returns a snapshot of the dispatcher's counters.
func (d *Dispatcher) Stats() Stats {
	executed := d.executed.Load()
	return Stats{
		Admitted:  d.admitted.Load(),
		Rejected:  d.rejected.Load(),
		Executed:  executed,
		Abandoned: d.abandoned.Load(),
		Batches:   executed,
	}
}

// Config returns the dispatcher's resolved configuration (defaults
// applied).
func (d *Dispatcher) Config() Config { return d.cfg }
