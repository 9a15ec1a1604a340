package pipeline

import (
	"sync"
	"sync/atomic"

	"advdet/internal/svm"
)

// scanScratch owns every reusable buffer of one windowSweep.run
// invocation that is not part of the frame stack: the block models,
// response planes (float and quantized), anchor lattices, the
// task/result arenas and the window-row workers' scratch. A scratch
// is borrowed from a process-wide pool for the duration of one sweep
// and returned afterwards, so the steady-state frame loop recomputes
// everything per frame but allocates (almost) nothing — the software
// equivalent of the PL's statically provisioned window-evaluator
// memories, which are rewritten every frame and never reallocated.
//
// Nothing borrowed from the pool escapes a sweep: detections handed
// to the caller are always freshly assembled.
type scanScratch struct {
	bm      svm.BlockModel
	qbm     svm.QuantBlockModel
	resp    [][]float64   // per-level float response planes; len 0 = not precomputed
	qresp   [][]int32     // per-level quantized response planes; len 0 = on-demand
	lats    []svm.Lattice // per-level anchor lattices (valid when nax > 0)
	nax     []int         // per-level anchor-lattice width; 0 = descriptor path
	tasks   []rowTask
	results [][]Detection
	rows    []*rowScratch // one per window-row worker
	nextRow atomic.Int32  // rows handed out this sweep
	// newRow is worker as a func value, bound once per pooled scratch
	// rather than once per sweep.
	newRow func() *rowScratch
}

var scanPool = sync.Pool{New: func() any {
	s := new(scanScratch)
	s.newRow = s.worker
	return s
}}

func borrowScanScratch() *scanScratch { return scanPool.Get().(*scanScratch) }

func releaseScanScratch(s *scanScratch) {
	// Drop detection references so the pool doesn't pin row output from
	// past frames; the slice headers themselves are reused. The clear
	// must run over the full capacity, not just the current length: a
	// scan with fewer row tasks than its predecessor shrinks
	// len(s.results), and rows of the larger frame parked in
	// [len, cap) would otherwise keep their detection slices — and the
	// frames those boxes came from — reachable for as long as the
	// scratch stays pooled.
	res := s.results[:cap(s.results)]
	for i := range res {
		res[i] = nil
	}
	scanPool.Put(s) // lint:alloc sync.Pool.Put boxes once per scan, not per window
}

// setLevels grows the per-level arenas to hold n levels, preserving
// existing entries (and their buffers) for reuse, and invalidates the
// per-level sweep state of every entry beyond n. A pyramid that
// shrinks between borrows (smaller frame, larger MinSize) leaves
// entries [n, high-water) holding the previous sweep's response planes
// and lattices; nothing re-derives them, so any later read of an
// entry the current sweep didn't fill must see "no data" rather than a
// stale plane. Buffers are kept (truncated, not freed) so a regrow
// reuses them.
func (s *scanScratch) setLevels(n int) {
	for len(s.resp) < n {
		s.resp = append(s.resp, nil)
	}
	for len(s.qresp) < n {
		s.qresp = append(s.qresp, nil)
	}
	for len(s.lats) < n {
		s.lats = append(s.lats, svm.Lattice{})
	}
	for len(s.nax) < n {
		s.nax = append(s.nax, 0)
	}
	for i := n; i < len(s.nax); i++ {
		s.resp[i] = s.resp[i][:0]
		s.qresp[i] = s.qresp[i][:0]
		s.lats[i] = svm.Lattice{}
		s.nax[i] = 0
	}
}

// beginWorkers readies one row scratch per window-row worker of the
// coming sweep; worker hands them out.
func (s *scanScratch) beginWorkers(n int) {
	for len(s.rows) < n {
		s.rows = append(s.rows, new(rowScratch)) // lint:alloc grows to the worker count once per pooled scratch
	}
	s.nextRow.Store(0)
}

// worker hands the next window-row worker its scratch: the
// par.ForEachLocal local constructor, called once per worker.
func (s *scanScratch) worker() *rowScratch {
	return s.rows[s.nextRow.Add(1)-1]
}

// setTasks sizes the task and result arenas for n row tasks and
// returns them, growing capacity only when needed (the fix for the
// old append-into-nil quadratic growth).
func (s *scanScratch) setTasks(n int) ([]rowTask, [][]Detection) {
	if cap(s.tasks) < n {
		s.tasks = make([]rowTask, n)
	}
	s.tasks = s.tasks[:n]
	if cap(s.results) < n {
		s.results = make([][]Detection, n)
	}
	s.results = s.results[:n]
	return s.tasks, s.results
}

// growF64 returns buf resized to n floats, reusing its backing array
// when possible. Contents are unspecified; callers overwrite fully.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growI32 is growF64 for int32 planes.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
