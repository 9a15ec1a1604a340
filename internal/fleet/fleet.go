// Package fleet multiplexes N concurrent camera streams over one
// shared, bounded worker pool. Admission is bounded with backpressure
// — once QueueDepth admitted items are waiting for an executor, Submit
// fails fast with the typed ErrOverloaded instead of queueing
// unboundedly — and admitted work flows through a size-or-deadline
// batcher: items accumulate until the batch is full or the oldest item
// has waited MaxWait, then the whole batch is handed to the executor
// pool. Every item carries timing stamps (enqueued, flushed, started,
// finished) so callers can attribute frame latency to queueing,
// batching and execution.
//
// The dispatcher is the software analogue of the paper's frame-slot
// arbitration: a fixed fabric (the executor pool) time-shared by
// whichever camera slots have work, with a hard admission bound in
// place of the camera's fixed slot count.
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
	// Workers is the executor pool size; <= 0 selects runtime.NumCPU().
	Workers int
	// QueueDepth bounds how many admitted items may wait for an
	// executor — in the admission queue, in the batcher's open batch,
	// or mid hand-off — at once; beyond it Submit fails with
	// ErrOverloaded. <= 0 selects 2×Workers.
	QueueDepth int
	// MaxBatch flushes a batch when it reaches this many items;
	// <= 0 selects 4.
	MaxBatch int
	// MaxWait flushes a non-empty batch once its oldest item has
	// waited this long, bounding the latency cost of batching;
	// <= 0 selects 2ms.
	MaxWait time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	return c
}

// Timing is one item's trip through the dispatcher.
type Timing struct {
	Enqueued time.Time // Submit admitted the item to the queue
	Flushed  time.Time // the batcher flushed the item's batch
	Started  time.Time // an executor picked the item up
	Finished time.Time // the item's work function returned
}

// QueueWait is the time spent in admission + batching before an
// executor picked the item up.
func (t Timing) QueueWait() time.Duration { return t.Started.Sub(t.Enqueued) }

// Run is the execution time of the work function itself.
func (t Timing) Run() time.Duration { return t.Finished.Sub(t.Started) }

// item claim states: an item is run at most once, and exactly one of
// the executor (claim) or the abandoning submitter (abandon) wins.
const (
	statePending int32 = iota
	stateClaimed
	stateAbandoned
)

type item struct {
	ctx   context.Context
	run   func(context.Context)
	tm    Timing
	state atomic.Int32
	done  chan struct{}
}

// Stats are the dispatcher's monotonic counters.
type Stats struct {
	Admitted  uint64 // items accepted into the queue
	Rejected  uint64 // items refused with ErrOverloaded
	Executed  uint64 // items whose work function ran
	Abandoned uint64 // items whose submitter gave up before execution
	Batches   uint64 // batches flushed (by size or by deadline)
}

// Dispatcher is the shared bounded worker pool with a size-or-deadline
// batcher in front. Build with NewDispatcher; Submit is safe for
// concurrent use by any number of streams.
type Dispatcher struct {
	cfg    Config
	in     chan *item // bounded admission queue
	exec   chan *item // batcher → executor hand-off
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.RWMutex // guards closed against in-flight Submit sends
	closed   bool
	shutdown func()
	once     sync.Once

	// waiting counts admitted items no executor has taken yet. It is
	// the admission bound: the batcher drains the queue channel into
	// its open batch as items arrive, so the channel's own fullness
	// would depend on whether the batcher ran between two sends.
	waiting atomic.Int64

	admitted  atomic.Uint64
	rejected  atomic.Uint64
	executed  atomic.Uint64
	abandoned atomic.Uint64
	batches   atomic.Uint64
}

// NewDispatcher starts the batcher and executor goroutines. The
// dispatcher runs until Close, which drains and completes all admitted
// work before returning.
func NewDispatcher(cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background()) // lint:ctxroot dispatcher-owned lifetime; items carry their submitter's ctx
	d := &Dispatcher{
		cfg:    cfg,
		in:     make(chan *item, cfg.QueueDepth),
		exec:   make(chan *item),
		cancel: cancel,
	}
	d.wg.Add(1)
	go d.batchLoop()
	d.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go d.execLoop(ctx)
	}
	// shutdown is the single joiner for every goroutine spawned above:
	// mark closed so no new Submit can send, close the admission
	// queue, and wait for the batcher to flush and the executors to
	// drain. Defined here so the goroutines' lifetime is visible at
	// their spawn site; Close runs it exactly once.
	d.shutdown = func() {
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		close(d.in)
		d.wg.Wait()
		d.cancel()
	}
	return d
}

// Submit admits one unit of work and blocks until it has executed (or
// until ctx is cancelled while the item still waits in queue). The
// work function receives the submitter's ctx and must honour its
// cancellation. On success the item's Timing is returned for latency
// attribution.
//
// Failure modes, all errors.Is-matchable: a pre-cancelled or
// in-queue-cancelled ctx wraps the context error; a full admission
// queue wraps ErrOverloaded; a closed dispatcher wraps ErrClosed. In
// every failure case the work function has not run and never will.
func (d *Dispatcher) Submit(ctx context.Context, run func(context.Context)) (Timing, error) {
	if err := ctx.Err(); err != nil {
		return Timing{}, fmt.Errorf("fleet: submit: %w", err)
	}
	it := &item{ctx: ctx, run: run, done: make(chan struct{})}
	it.tm.Enqueued = time.Now()

	// The RLock spans the closed check and the send so Close (which
	// takes the write lock before closing the channel) can never close
	// the queue out from under an in-flight send.
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return Timing{}, fmt.Errorf("fleet: submit: %w", ErrClosed)
	}
	if d.waiting.Add(1) > int64(d.cfg.QueueDepth) {
		d.waiting.Add(-1)
		d.mu.RUnlock()
		d.rejected.Add(1)
		return Timing{}, fmt.Errorf("fleet: submit: %w", ErrOverloaded)
	}
	// Never blocks: the channel holds QueueDepth items and only
	// waiting ones are ever in it.
	d.in <- it
	d.mu.RUnlock()
	d.admitted.Add(1)

	select {
	case <-it.done:
	case <-ctx.Done():
		if it.state.CompareAndSwap(statePending, stateAbandoned) {
			// Won the race against the executor: the item is dead in
			// queue and its work function will never run.
			d.abandoned.Add(1)
			return Timing{}, fmt.Errorf("fleet: submit: abandoned in queue: %w", ctx.Err())
		}
		// An executor already claimed the item; it is running with the
		// (now cancelled) ctx and will finish promptly. Report its
		// completion rather than racing it.
		<-it.done
	}
	return it.tm, nil
}

// batchLoop accumulates admitted items and flushes by size or
// deadline. It exits when the admission queue is closed, flushing the
// tail batch and closing the executor hand-off so the pool drains.
func (d *Dispatcher) batchLoop() {
	defer d.wg.Done()
	defer close(d.exec)
	timer := time.NewTimer(d.cfg.MaxWait)
	if !timer.Stop() {
		<-timer.C
	}
	batch := make([]*item, 0, d.cfg.MaxBatch)
	for {
		if len(batch) == 0 {
			it, ok := <-d.in
			if !ok {
				return
			}
			batch = append(batch, it)
			timer.Reset(d.cfg.MaxWait)
		}
		if len(batch) < d.cfg.MaxBatch {
			select {
			case it, ok := <-d.in:
				if !ok {
					d.flush(&batch, timer)
					return
				}
				batch = append(batch, it)
				continue
			case <-timer.C:
				d.flush(&batch, nil)
				continue
			}
		}
		d.flush(&batch, timer)
	}
}

// flush stamps and hands the batch to the executors, recycling the
// batch slice. A non-nil timer is disarmed (the flush pre-empted the
// deadline).
func (d *Dispatcher) flush(batch *[]*item, timer *time.Timer) {
	if timer != nil && !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	// Count the batch when it is sealed, not after the hand-off: a
	// submitter whose item already executed must see its batch in
	// Stats.
	d.batches.Add(1)
	now := time.Now()
	for _, it := range *batch {
		it.tm.Flushed = now
		d.exec <- it
		d.waiting.Add(-1)
	}
	*batch = (*batch)[:0]
}

// execLoop drains the hand-off channel until the batcher closes it.
func (d *Dispatcher) execLoop(ctx context.Context) {
	defer d.wg.Done()
	for it := range d.exec {
		d.execute(ctx, it)
	}
}

// execute runs one item: the steady-state fleet dispatch path, one
// invocation per admitted frame, so it must stay allocation-free.
// Exactly one of execute (claim) and an abandoning Submit wins the
// item; execute always closes done so the submitter unblocks.
//
// lint:hotpath
func (d *Dispatcher) execute(ctx context.Context, it *item) {
	it.tm.Started = time.Now()
	if ctx.Err() == nil && it.ctx.Err() == nil &&
		it.state.CompareAndSwap(statePending, stateClaimed) {
		it.run(it.ctx)
		d.executed.Add(1)
	}
	it.tm.Finished = time.Now()
	close(it.done)
}

// Close marks the dispatcher closed, drains and completes every
// admitted item, and joins all goroutines. Submit after Close fails
// with ErrClosed. Close is idempotent and safe to call concurrently
// with Submit.
func (d *Dispatcher) Close() {
	d.once.Do(d.shutdown)
}

// Stats returns a snapshot of the dispatcher's counters.
func (d *Dispatcher) Stats() Stats {
	return Stats{
		Admitted:  d.admitted.Load(),
		Rejected:  d.rejected.Load(),
		Executed:  d.executed.Load(),
		Abandoned: d.abandoned.Load(),
		Batches:   d.batches.Load(),
	}
}

// Config returns the dispatcher's resolved configuration (defaults
// applied).
func (d *Dispatcher) Config() Config { return d.cfg }
