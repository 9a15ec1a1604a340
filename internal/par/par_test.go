package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolvesAuto(t *testing.T) {
	if Workers(0) != runtime.NumCPU() || Workers(-3) != runtime.NumCPU() {
		t.Fatal("non-positive knob must resolve to NumCPU")
	}
	if Workers(5) != 5 {
		t.Fatal("explicit knob must pass through")
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 1000
		counts := make([]int32, n)
		err := ForEach(context.Background(), workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachDeterministicSlots(t *testing.T) {
	n := 257
	run := func(workers int) []int {
		out := make([]int, n)
		if err := ForEach(context.Background(), workers, n, func(i int) { out[i] = i * i }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestForEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	err := ForEach(ctx, 4, 100, func(int) { atomic.AddInt32(&ran, 1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Fatalf("%d items ran under a pre-cancelled context", ran)
	}
}

func TestForEachCancelledMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 2, 10_000, func(i int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10_000 {
		t.Fatalf("cancellation did not stop the sweep (ran %d)", n)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) { t.Fatal("fn called") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLocalVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 1000
		counts := make([]int32, n)
		var locals atomic.Int32
		err := ForEachLocal(context.Background(), workers, n,
			func() *int32 { locals.Add(1); return new(int32) },
			func(i int, l *int32) {
				*l++
				atomic.AddInt32(&counts[i], 1)
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
		if got := int(locals.Load()); got > Workers(workers) || got < 1 {
			t.Fatalf("workers=%d: newLocal called %d times, want 1..%d", workers, got, Workers(workers))
		}
	}
}

// TestForEachLocalSerialSharesOneLocal pins the serial reference path:
// one local, created before the first index.
func TestForEachLocalSerialSharesOneLocal(t *testing.T) {
	var made int
	sum := 0
	err := ForEachLocal(context.Background(), 1, 10,
		func() *int { made++; return new(int) },
		func(i int, l *int) { *l += i; sum = *l })
	if err != nil {
		t.Fatal(err)
	}
	if made != 1 {
		t.Fatalf("serial path created %d locals, want 1", made)
	}
	if sum != 45 {
		t.Fatalf("accumulated %d through the shared local, want 45", sum)
	}
}

func TestForEachLocalPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEachLocal(ctx, 4, 100, func() int { return 0 },
		func(i int, _ int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn ran after pre-cancellation (serial path must check first)")
	}
}

// squares is an owned-fan-out job writing i*i into its own slot.
type squares struct{ out []int }

func (s *squares) Do(_, i int) { s.out[i] = i * i }

// TestFanoutAllocFree pins the owned fan-out's contract: once its
// helper func value is bound, a Run allocates nothing at any width,
// and its output equals the serial path's.
func TestFanoutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n = 257
	ref := &squares{out: make([]int, n)}
	var serial Fanout
	if err := serial.Run(context.Background(), 1, n, ref); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4} {
		var f Fanout
		job := &squares{out: make([]int, n)}
		allocs := testing.AllocsPerRun(50, func() {
			clear(job.out)
			if err := f.Run(ctx, workers, n, job); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("workers=%d: Run allocates %.1f objects, want 0", workers, allocs)
		}
		for i := range ref.out {
			if job.out[i] != ref.out[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, job.out[i], ref.out[i])
			}
		}
	}
}

// workerIDs records which worker ran each index.
type workerIDs struct {
	workers int
	bad     atomic.Int32
}

func (j *workerIDs) Do(w, _ int) {
	if w < 0 || w >= j.workers {
		j.bad.Add(1)
	}
}

// TestFanoutWorkerIDsInRange: every worker id a job sees lies in
// [0, workers), so jobs can index per-worker scratch by it.
func TestFanoutWorkerIDsInRange(t *testing.T) {
	var f Fanout
	for _, workers := range []int{1, 2, 3, 8} {
		j := &workerIDs{workers: workers}
		for rep := 0; rep < 20; rep++ {
			if err := f.Run(context.Background(), workers, 100, j); err != nil {
				t.Fatal(err)
			}
		}
		if n := j.bad.Load(); n != 0 {
			t.Fatalf("workers=%d: %d indices ran on an out-of-range worker id", workers, n)
		}
	}
}
