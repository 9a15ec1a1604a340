package pipeline

import (
	"sync"
	"sync/atomic"

	"advdet/internal/svm"
)

// scanScratch owns every reusable buffer of one windowSweep.run
// invocation that is not part of the frame stack: the block models,
// anchor lattices, the task/result arenas and the window-row workers'
// scratch. A scratch is borrowed from a process-wide pool for the duration of one sweep
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
	lats    []svm.Lattice // per-level anchor lattices
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

// setLevels grows the per-level lattice arena to hold n levels and
// clears every entry beyond n: a pyramid that shrinks between borrows
// (smaller frame, larger MinSize) must not leave the previous sweep's
// lattices looking current to a later reader.
func (s *scanScratch) setLevels(n int) {
	for len(s.lats) < n {
		s.lats = append(s.lats, svm.Lattice{})
	}
	clear(s.lats[n:])
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
