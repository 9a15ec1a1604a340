// Package par provides the bounded fan-out primitive the parallel
// detection engine is built on: a fixed-size worker pool that spreads
// independent index-addressed work items across goroutines while
// preserving determinism.
//
// Determinism contract: ForEach gives every index its own output slot
// (callers write results[i] inside fn), so the assembled result is
// independent of worker scheduling. Running with one worker and with
// N workers produces byte-identical output as long as fn itself is a
// pure function of its index and of read-only shared state.
//
// This mirrors the paper's PL datapath, where HOG windows are
// evaluated by replicated pipeline lanes whose outputs are recombined
// in raster order regardless of per-lane latency.
//
// lint:detpath
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob: values <= 0 select
// runtime.NumCPU(), anything else is used as given.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// ForEach invokes fn(i) for every i in [0, n), fanning the indices
// across at most workers goroutines, the caller's included (workers
// <= 0 means NumCPU). It returns when every index has been processed
// or the context is cancelled; on cancellation the remaining indices
// are skipped and the context's error is returned, so callers must
// discard partial results on a non-nil error.
//
// fn must be safe for concurrent invocation with distinct indices and
// must not retain or mutate state shared across indices except through
// its own index-addressed slot.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial reference path: no goroutines, same cancellation
		// granularity as the pool (one check per index).
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	// The caller is one of the workers: it runs work itself after
	// starting the others, rather than idling in Wait. Every worker
	// runs the same closure, so a call allocates the closure and its
	// shared state once whatever the worker count — the hot scan loops
	// fan out dozens of times per frame.
	f := new(fanout)
	work := func() {
		defer f.wg.Done()
		for ctx.Err() == nil {
			i := f.claim()
			if i >= n {
				return
			}
			fn(i)
		}
	}
	f.start(ctx, workers, work)
	return ctx.Err()
}

// fanout is the state one parallel ForEach/ForEachLocal call shares
// between its workers, kept in one object so it is allocated once.
type fanout struct {
	next atomic.Int64 // next unclaimed index
	wg   sync.WaitGroup
}

// claim returns the next index to process; past n once all are taken.
func (f *fanout) claim() int { return int(f.next.Add(1)) - 1 }

// start runs work on workers goroutines, the caller's included, and
// returns once every one has finished. work must call f.wg.Done. No
// further workers start once ctx is cancelled.
func (f *fanout) start(ctx context.Context, workers int, work func()) {
	for w := 1; w < workers; w++ {
		if ctx.Err() != nil {
			break
		}
		f.wg.Add(1)
		go work()
	}
	f.wg.Add(1)
	work()
	f.wg.Wait()
}

// ForEachLocal is ForEach with per-worker local state: every worker
// calls newLocal exactly once before processing its first index and
// passes the value to each fn invocation it runs. Locals let hot scan
// loops own reusable scratch buffers (one per worker, not one per
// index) without any allocation inside fn.
//
// The determinism contract is unchanged: fn's observable output must
// be a pure function of i and read-only shared state. A local may
// carry scratch whose contents feed the output, but never state that
// communicates between indices — which indices share a worker is
// scheduling-dependent.
func ForEachLocal[L any](ctx context.Context, workers, n int, newLocal func() L, fn func(i int, local L)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial reference path: no goroutines, same cancellation
		// granularity as the pool (one check per index).
		local := newLocal()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i, local)
		}
		return nil
	}
	// As in ForEach, the caller is one of the workers.
	f := new(fanout)
	work := func() {
		defer f.wg.Done()
		local := newLocal()
		for ctx.Err() == nil {
			i := f.claim()
			if i >= n {
				return
			}
			fn(i, local)
		}
	}
	f.start(ctx, workers, work)
	return ctx.Err()
}
