package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitRunsWorkAndStampsTiming(t *testing.T) {
	d := NewDispatcher(Config{Workers: 1, MaxWait: time.Millisecond})
	defer d.Close()
	ran := false
	tm, err := d.Submit(context.Background(), func(context.Context) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("work function did not run")
	}
	if tm.Enqueued.After(tm.Flushed) || tm.Flushed.After(tm.Started) || tm.Started.After(tm.Finished) {
		t.Fatalf("timing not monotonic: %+v", tm)
	}
	if tm.QueueWait() < 0 || tm.Run() < 0 {
		t.Fatalf("negative durations: wait=%v run=%v", tm.QueueWait(), tm.Run())
	}
	st := d.Stats()
	if st.Admitted != 1 || st.Executed != 1 || st.Rejected != 0 || st.Abandoned != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBatchFlushesBySize(t *testing.T) {
	// MaxWait is far beyond the test's patience: the only way the
	// three submissions can complete is a size-triggered flush.
	d := NewDispatcher(Config{Workers: 2, QueueDepth: 8, MaxBatch: 3, MaxWait: time.Hour})
	defer d.Close()
	var wg sync.WaitGroup
	var executed atomic.Int32
	wg.Add(3)
	for i := 0; i < 3; i++ {
		go func() {
			defer wg.Done()
			if _, err := d.Submit(context.Background(), func(context.Context) { executed.Add(1) }); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("size-of-3 batch never flushed (deadline flush is an hour away)")
	}
	if executed.Load() != 3 {
		t.Fatalf("executed %d, want 3", executed.Load())
	}
	if st := d.Stats(); st.Batches != 1 {
		t.Fatalf("batches %d, want exactly 1 (one full batch)", st.Batches)
	}
}

func TestBatchFlushesByDeadline(t *testing.T) {
	const wait = 50 * time.Millisecond
	// MaxBatch is unreachably large: only the deadline can flush.
	d := NewDispatcher(Config{Workers: 1, QueueDepth: 8, MaxBatch: 1000, MaxWait: wait})
	defer d.Close()
	start := time.Now()
	tm, err := d.Submit(context.Background(), func(context.Context) {})
	if err != nil {
		t.Fatal(err)
	}
	if held := tm.Flushed.Sub(start); held < wait/2 {
		t.Fatalf("flushed after %v, want the deadline hold of ~%v", held, wait)
	}
	if st := d.Stats(); st.Batches != 1 || st.Executed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// blockedDispatcher builds a single-worker dispatcher whose one
// executor is parked inside a work function until gate is closed.
func blockedDispatcher(t *testing.T, depth int) (d *Dispatcher, gate chan struct{}, blockerDone chan error) {
	t.Helper()
	d = NewDispatcher(Config{Workers: 1, QueueDepth: depth, MaxBatch: 1, MaxWait: time.Millisecond})
	gate = make(chan struct{})
	started := make(chan struct{})
	blockerDone = make(chan error, 1)
	go func() {
		_, err := d.Submit(context.Background(), func(context.Context) {
			close(started)
			<-gate
		})
		blockerDone <- err
	}()
	<-started
	return d, gate, blockerDone
}

func TestSubmitOverloadedWhenQueueFull(t *testing.T) {
	d, gate, blockerDone := blockedDispatcher(t, 1)
	// With the executor parked, one more submission can wait (blocked
	// in the batcher's flush, holding the depth-1 bound); sixteen
	// concurrent submitters must see rejections.
	const submitters = 16
	var rejected, accepted atomic.Int32
	var wg sync.WaitGroup
	wg.Add(submitters)
	for i := 0; i < submitters; i++ {
		go func() {
			defer wg.Done()
			_, err := d.Submit(context.Background(), func(context.Context) {})
			switch {
			case err == nil:
				accepted.Add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	// Rejections are immediate; wait for them to accumulate before
	// releasing the executor so the queue is genuinely full.
	for deadline := time.Now().Add(5 * time.Second); rejected.Load() == 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if rejected.Load() == 0 {
		t.Fatal("no submission was rejected with ErrOverloaded")
	}
	if got := rejected.Load() + accepted.Load(); got != submitters {
		t.Fatalf("accounted for %d of %d submitters", got, submitters)
	}
	st := d.Stats()
	if st.Rejected != uint64(rejected.Load()) {
		t.Fatalf("stats rejected %d, observed %d", st.Rejected, rejected.Load())
	}
	d.Close()
	if st := d.Stats(); st.Admitted != st.Executed+st.Abandoned {
		t.Fatalf("admitted %d != executed %d + abandoned %d", st.Admitted, st.Executed, st.Abandoned)
	}
}

// TestAdmissionBoundCountsBatchedItems pins the admission bound to
// the items waiting for an executor, wherever they wait: items the
// batcher has already drained from the queue channel into its open
// batch still count, so with QueueDepth items held by a batch that
// cannot flush, the next Submit is refused at once, however the
// batcher goroutine happened to be scheduled.
func TestAdmissionBoundCountsBatchedItems(t *testing.T) {
	const depth = 2
	d := NewDispatcher(Config{Workers: 1, QueueDepth: depth, MaxBatch: 1000, MaxWait: time.Hour})
	var wg sync.WaitGroup
	wg.Add(depth)
	for i := 0; i < depth; i++ {
		go func() {
			defer wg.Done()
			if _, err := d.Submit(context.Background(), func(context.Context) {}); err != nil {
				t.Errorf("admitted submit: %v", err)
			}
		}()
	}
	for d.Stats().Admitted < depth {
		time.Sleep(time.Millisecond)
	}
	// Give the batcher every chance to drain the channel first: the
	// bound must not depend on it.
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 3; i++ {
		// An admitted item would wait an hour for its batch; the
		// timeout turns that into an abandon error instead of a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := d.Submit(ctx, func(context.Context) {})
		cancel()
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit %d beyond the bound: err = %v, want ErrOverloaded", i, err)
		}
	}
	d.Close() // flushes the held batch; the admitted items run
	wg.Wait()
	if st := d.Stats(); st.Admitted != depth || st.Executed != depth || st.Rejected != 3 {
		t.Fatalf("stats %+v, want %d admitted and executed, 3 rejected", st, depth)
	}
}

func TestSubmitPreCancelledContextNeverAdmits(t *testing.T) {
	d := NewDispatcher(Config{Workers: 1})
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := d.Submit(ctx, func(context.Context) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("work function ran despite pre-cancelled ctx")
	}
	if st := d.Stats(); st.Admitted != 0 || st.Rejected != 0 {
		t.Fatalf("pre-cancelled submit touched the queue: %+v", st)
	}
}

func TestSubmitAbandonedInQueueOnCancel(t *testing.T) {
	d, gate, blockerDone := blockedDispatcher(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{}, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := d.Submit(ctx, func(context.Context) { ran <- struct{}{} })
		errc <- err
	}()
	// Let the submission be admitted, then cancel while it waits
	// behind the parked executor.
	for deadline := time.Now().Add(5 * time.Second); d.Stats().Admitted < 2; {
		if time.Now().After(deadline) {
			t.Fatal("second submission never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	d.Close()
	select {
	case <-ran:
		t.Fatal("abandoned work function ran")
	default:
	}
	if st := d.Stats(); st.Abandoned != 1 {
		t.Fatalf("abandoned %d, want 1", st.Abandoned)
	}
}

func TestCloseDrainsAdmittedWorkThenRejects(t *testing.T) {
	d := NewDispatcher(Config{Workers: 2, QueueDepth: 16, MaxBatch: 4, MaxWait: time.Millisecond})
	var executed atomic.Int32
	var wg sync.WaitGroup
	const n = 10
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if _, err := d.Submit(context.Background(), func(context.Context) { executed.Add(1) }); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	d.Close()
	d.Close() // idempotent
	if executed.Load() != n {
		t.Fatalf("executed %d, want %d", executed.Load(), n)
	}
	_, err := d.Submit(context.Background(), func(context.Context) {})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit err = %v, want ErrClosed", err)
	}
}

func TestSentinelsAreDistinct(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"ErrOverloaded", ErrOverloaded},
		{"ErrClosed", ErrClosed},
		{"ErrStreamClosed", ErrStreamClosed},
	} {
		for _, other := range []error{ErrOverloaded, ErrClosed, ErrStreamClosed} {
			want := tc.err == other
			if got := errors.Is(tc.err, other); got != want {
				t.Errorf("errors.Is(%s, %v) = %v, want %v", tc.name, other, got, want)
			}
		}
	}
}

func TestConcurrentSubmittersAllComplete(t *testing.T) {
	d := NewDispatcher(Config{Workers: 4, QueueDepth: 256, MaxBatch: 8, MaxWait: 100 * time.Microsecond})
	defer d.Close()
	const streams = 8
	const frames = 50
	var executed atomic.Int32
	var wg sync.WaitGroup
	wg.Add(streams)
	for s := 0; s < streams; s++ {
		go func() {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				if _, err := d.Submit(context.Background(), func(context.Context) { executed.Add(1) }); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if executed.Load() != streams*frames {
		t.Fatalf("executed %d, want %d", executed.Load(), streams*frames)
	}
	st := d.Stats()
	if st.Admitted != streams*frames || st.Executed != streams*frames {
		t.Fatalf("stats %+v", st)
	}
	if st.Batches == 0 || st.Batches > st.Admitted {
		t.Fatalf("implausible batch count %d for %d items", st.Batches, st.Admitted)
	}
}

func TestConfigDefaults(t *testing.T) {
	d := NewDispatcher(Config{})
	defer d.Close()
	cfg := d.Config()
	if cfg.Workers <= 0 || cfg.QueueDepth != 2*cfg.Workers || cfg.MaxBatch != 4 || cfg.MaxWait != 2*time.Millisecond {
		t.Fatalf("defaults %+v", cfg)
	}
}
