package fleet

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitRunsWorkAndStampsTiming(t *testing.T) {
	d := NewDispatcher(Config{Workers: 1})
	defer d.Close()
	ran := false
	tm, err := d.Submit(context.Background(), func(context.Context) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("work function did not run")
	}
	if tm.Enqueued.After(tm.Started) || tm.Started.After(tm.Finished) {
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

// blockedDispatcher builds a dispatcher whose workers executor slots
// are all held by work functions parked until gate is closed; each
// holder's Submit error arrives on blockerDone.
func blockedDispatcher(t *testing.T, workers, depth int) (d *Dispatcher, gate chan struct{}, blockerDone chan error) {
	t.Helper()
	d = NewDispatcher(Config{Workers: workers, QueueDepth: depth})
	gate = make(chan struct{})
	started := make(chan struct{}, workers)
	blockerDone = make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			_, err := d.Submit(context.Background(), func(context.Context) {
				started <- struct{}{}
				<-gate
			})
			blockerDone <- err
		}()
		<-started
	}
	return d, gate, blockerDone
}

// waitParked waits until n goroutines are blocked in Submit's select,
// i.e. queued on the slot semaphore (or on their ctx).
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		parked := 0
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte(" [select")) && bytes.Contains(g, []byte("(*Dispatcher).Submit(")) {
				parked++
			}
		}
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d submitters parked for a slot, want %d", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitOverloadedWhenQueueFull(t *testing.T) {
	d, gate, blockerDone := blockedDispatcher(t, 1, 1)
	// With the executor slot held, one more submission can wait for
	// it, holding the depth-1 bound; sixteen concurrent submitters
	// must see rejections.
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
// the items waiting for an executor slot: with every slot held busy
// and QueueDepth admitted items queued behind them, the next Submit is
// refused at once, and the queued items still run once the slots free.
func TestAdmissionBoundCountsBatchedItems(t *testing.T) {
	const workers, depth = 2, 2
	d, gate, blockerDone := blockedDispatcher(t, workers, depth)
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
	waitParked(t, depth)
	for i := 0; i < 3; i++ {
		// An admitted item would wait for the gate; the timeout turns
		// that into an abandon error instead of a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := d.Submit(ctx, func(context.Context) {})
		cancel()
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit %d beyond the bound: err = %v, want ErrOverloaded", i, err)
		}
	}
	close(gate)
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-blockerDone; err != nil {
			t.Fatalf("blocker: %v", err)
		}
	}
	d.Close()
	const admitted = workers + depth
	if st := d.Stats(); st.Admitted != admitted || st.Executed != admitted || st.Rejected != 3 {
		t.Fatalf("stats %+v, want %d admitted and executed, 3 rejected", st, admitted)
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
	d, gate, blockerDone := blockedDispatcher(t, 1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{}, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := d.Submit(ctx, func(context.Context) { ran <- struct{}{} })
		errc <- err
	}()
	// Let the submission queue for the slot, then cancel while it
	// waits behind the parked executor.
	waitParked(t, 1)
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
	d := NewDispatcher(Config{Workers: 2, QueueDepth: 16})
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
	d := NewDispatcher(Config{Workers: 4, QueueDepth: 256})
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
	if st.Batches != st.Executed {
		t.Fatalf("dispatches %d, want one per executed item (%d)", st.Batches, st.Executed)
	}
}

func TestConfigDefaults(t *testing.T) {
	d := NewDispatcher(Config{})
	defer d.Close()
	cfg := d.Config()
	if cfg.Workers <= 0 || cfg.QueueDepth != 2*cfg.Workers {
		t.Fatalf("defaults %+v", cfg)
	}
}

// TestWaitersTakeSlotsInArrivalOrder: submitters queued behind a busy
// executor start in the order they arrived, not in a scheduler- or
// select-chosen order.
func TestWaitersTakeSlotsInArrivalOrder(t *testing.T) {
	const waiters = 8
	d, gate, blockerDone := blockedDispatcher(t, 1, waiters)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			if _, err := d.Submit(context.Background(), func(context.Context) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
		}()
		// Queue waiter i before waiter i+1 arrives.
		waitParked(t, i+1)
	}
	close(gate)
	wg.Wait()
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	d.Close()
	for i, got := range order {
		if got != i {
			t.Fatalf("start order %v, want arrival order 0..%d", order, waiters-1)
		}
	}
	if len(order) != waiters {
		t.Fatalf("%d of %d waiters ran", len(order), waiters)
	}
}

// TestCancelledWaiterNeverRuns: a submitter cancelled while queued for
// a slot returns the context error and is counted abandoned at once;
// its work function never runs, and the waiters around it still do.
func TestCancelledWaiterNeverRuns(t *testing.T) {
	d, gate, blockerDone := blockedDispatcher(t, 1, 3)
	var ran [3]atomic.Bool
	ctxs := make([]context.Context, 3)
	cancels := make([]context.CancelFunc, 3)
	errs := make([]chan error, 3)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
		errs[i] = make(chan error, 1)
		go func() {
			_, err := d.Submit(ctxs[i], func(context.Context) { ran[i].Store(true) })
			errs[i] <- err
		}()
		waitParked(t, i+1)
	}
	cancels[1]()
	if err := <-errs[1]; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	if st := d.Stats(); st.Abandoned != 1 || st.Executed != 0 {
		t.Fatalf("stats %+v, want 1 abandoned and nothing executed yet", st)
	}
	close(gate)
	for _, i := range []int{0, 2} {
		if err := <-errs[i]; err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	d.Close()
	if !ran[0].Load() || ran[1].Load() || !ran[2].Load() {
		t.Fatalf("ran = %v %v %v, want the cancelled waiter alone skipped", ran[0].Load(), ran[1].Load(), ran[2].Load())
	}
	if st := d.Stats(); st.Admitted != 4 || st.Executed != 3 || st.Abandoned != 1 {
		t.Fatalf("stats %+v, want 4 admitted, 3 executed, 1 abandoned", st)
	}
}

// TestSubmitAllocatesNothing: the fleet dispatch path runs once per
// frame and must stay allocation-free.
func TestSubmitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d := NewDispatcher(Config{Workers: 1})
	defer d.Close()
	ctx := context.Background()
	noop := func(context.Context) {}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Submit(ctx, noop); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("admitted Submit allocates %v objects, want 0", allocs)
	}
}

// TestDispatcherSpawnsNoGoroutines: every item runs on its submitter's
// goroutine, so building, using and closing a dispatcher leaves the
// goroutine count where it was. (Only growth is checked: a goroutine
// of an earlier test may still be exiting.)
func TestDispatcherSpawnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	d := NewDispatcher(Config{Workers: 4})
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewDispatcher: %d goroutines, was %d", n, before)
	}
	if _, err := d.Submit(context.Background(), func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("after Close: %d goroutines, was %d", n, before)
	}
}
