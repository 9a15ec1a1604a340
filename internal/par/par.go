// Package par provides the bounded fan-out primitive the parallel
// detection engine is built on: a fixed-size worker pool that spreads
// independent index-addressed work items across goroutines while
// preserving determinism.
//
// Determinism contract: a fan-out gives every index its own output
// slot (callers write results[i] for index i), so the assembled result
// is independent of worker scheduling. Running with one worker and
// with N workers produces byte-identical output as long as the work
// itself is a pure function of its index and of read-only shared
// state.
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

// Job is the work of one fan-out: Do(w, i) processes index i on
// worker w, where w is in [0, workers) and no two goroutines run as
// the same w at once. A worker may therefore index per-worker scratch
// by w, but which indices share a worker is scheduling-dependent, so
// the output of Do must be a pure function of i and of read-only
// shared state. Jobs are pointer types held by the fan-out's owner, so
// passing one to Run boxes nothing.
type Job interface {
	Do(w, i int)
}

// Fanout runs jobs across a bounded set of goroutines, the caller's
// included. A long-lived owner — a feature map, a block grid, a frame
// stack, a sweep's scratch — embeds one and runs every fan-out of its
// hot loop through it: the shared state lives in the owner and the
// helpers are spawned from a func value bound on first use, so a
// steady-state Run allocates nothing. The zero value is ready. A
// Fanout serves one Run at a time; a job must not Run its own Fanout.
type Fanout struct {
	ctx  context.Context
	job  Job
	n    int
	next atomic.Int64 // next unclaimed index
	ids  atomic.Int32 // worker ids handed to helpers
	wg   sync.WaitGroup
	// help is f.helper as a func value, bound once.
	help func()
}

// Run calls job.Do for every i in [0, n), fanning the indices across
// at most workers goroutines, the caller's included (workers <= 0
// means NumCPU). It returns once every started goroutine has finished:
// when every index has been processed, or when the context is
// cancelled — the context is checked before each index, the remaining
// indices are skipped and the context's error is returned, so callers
// must discard partial results on a non-nil error. One worker runs
// every index in order on the calling goroutine.
func (f *Fanout) Run(ctx context.Context, workers, n int, job Job) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = min(Workers(workers), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			job.Do(0, i)
		}
		return nil
	}
	if f.help == nil {
		f.help = f.helper
	}
	f.ctx, f.job, f.n = ctx, job, n
	f.next.Store(0)
	f.ids.Store(0)
	for w := 1; w < workers; w++ {
		if ctx.Err() != nil {
			break
		}
		f.wg.Add(1)
		go f.help()
	}
	f.work(0)
	f.wg.Wait()
	f.ctx, f.job = nil, nil // an idle owner pins neither
	return ctx.Err()
}

// helper is a spawned worker: it takes the next worker id and works.
func (f *Fanout) helper() {
	defer f.wg.Done()
	f.work(int(f.ids.Add(1)))
}

// work claims and processes indices as worker w until none are left
// or the context is cancelled.
func (f *Fanout) work(w int) {
	for f.ctx.Err() == nil {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		f.job.Do(w, i)
	}
}

// funcJob adapts a per-index function to a Job.
type funcJob func(i int)

func (fn funcJob) Do(_, i int) { fn(i) }

// ForEach invokes fn(i) for every i in [0, n) on a one-off Fanout; see
// Fanout.Run for the worker, cancellation and join contract. It
// allocates its fan-out and closure per call, so hot loops run an
// owned Fanout instead.
//
// fn must be safe for concurrent invocation with distinct indices and
// must not retain or mutate state shared across indices except through
// its own index-addressed slot.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	return new(Fanout).Run(ctx, workers, n, funcJob(fn))
}

// localJob adapts ForEachLocal's constructor and function to a Job:
// worker w makes its local on its first index.
type localJob[L any] struct {
	newLocal func() L
	fn       func(i int, local L)
	locals   []L
	made     []bool
}

func (j *localJob[L]) Do(w, i int) {
	if !j.made[w] {
		j.locals[w], j.made[w] = j.newLocal(), true
	}
	j.fn(i, j.locals[w])
}

// ForEachLocal is ForEach with per-worker local state: every worker
// calls newLocal exactly once before processing its first index and
// passes the value to each fn invocation it runs. Like ForEach it
// allocates per call; hot loops run an owned Fanout whose Job indexes
// per-worker scratch by worker id.
//
// The determinism contract is unchanged: fn's observable output must
// be a pure function of i and read-only shared state. A local may
// carry scratch whose contents feed the output, but never state that
// communicates between indices — which indices share a worker is
// scheduling-dependent.
func ForEachLocal[L any](ctx context.Context, workers, n int, newLocal func() L, fn func(i int, local L)) error {
	w := max(1, min(Workers(workers), n))
	j := &localJob[L]{newLocal: newLocal, fn: fn, locals: make([]L, w), made: make([]bool, w)}
	return new(Fanout).Run(ctx, workers, n, j)
}
