package pipeline

import (
	"advdet/internal/par"
	"advdet/internal/svm"
)

// scanScratch owns every reusable buffer of one windowSweep.run
// invocation that is not part of the frame stack's products: the anchor
// lattices, the task/result arenas, the window-row workers' scratch and
// detection arenas, the assembled detection list, NMS's working set
// and the row fan-out. The frame stack owns one, and its sweeps run
// one after another, so the steady-state frame loop recomputes
// everything per frame but allocates nothing beyond the NMS survivors
// it hands to the caller — the software equivalent of the PL's
// statically provisioned window-evaluator memories, which are
// rewritten every frame and never reallocated. Owned rather than
// pooled: a sync.Pool hands a goroutine that moved to another P a
// fresh scratch to regrow, and drops its scratches at GC.
//
// Results alias only the scratch's own arenas and the stack's
// temporal rows; detections handed to the caller are always freshly
// assembled.
type scanScratch struct {
	lats    []svm.Lattice // per-level anchor lattices
	tasks   []rowTask
	bands   []rowBand
	results [][]Detection // per row task; aliases a worker arena or the temporal part
	rows    []*rowScratch // one per window-row worker
	all     []Detection   // every row's detections in task order
	nms     nmsScratch
	fan     par.Fanout
	job     sweepJob
}

// setLevels grows the per-level lattice arena to hold n levels and
// clears every entry beyond n: a pyramid that shrinks between sweeps
// (smaller frame, larger MinSize) must not leave the previous sweep's
// lattices looking current to a later reader.
func (s *scanScratch) setLevels(n int) {
	for len(s.lats) < n {
		s.lats = append(s.lats, svm.Lattice{})
	}
	clear(s.lats[n:])
}

// beginWorkers readies one row scratch per window-row worker of the
// coming sweep, its detection arena emptied and its times zeroed.
func (s *scanScratch) beginWorkers(n int) {
	for len(s.rows) < n {
		s.rows = append(s.rows, new(rowScratch)) // lint:alloc grows to the worker count once per scratch
	}
	for _, rs := range s.rows[:n] {
		rs.dets = rs.dets[:0]
		rs.busy, rs.plane = 0, 0
	}
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

// sweepModel is one sweep's model reshaped for block scoring: the float
// block model, its plane layout for the sweep's anchor step and, once
// a quantized sweep asks, the quantized model. The
// frame stack keeps one per model and window geometry it sweeps, so
// sweeps that alternate over one stack — vehicle and pedestrian —
// reshape nothing after their first frame.
type sweepModel struct {
	model *svm.Model
	bm    svm.BlockModel
	pl    svm.PlaneLayout
	qbm   svm.QuantBlockModel
}

// maxSweepModels bounds the reshaped models one stack keeps: a System
// sweeps at most three models (day, dusk, pedestrian) over its stack.
const maxSweepModels = 4

// model returns s's reshaped model, shaping it on the stack's first
// sweep of that model and window geometry, or an error wrapping
// ErrScanGeometry. Past maxSweepModels the oldest is dropped.
func (st *FrameStack) model(s windowSweep) (*sweepModel, error) {
	bw, bh := s.Cfg.BlocksFor(s.WinW, s.WinH)
	for _, m := range st.models {
		if m.model == s.Model && m.bm.BW == bw && m.bm.BH == bh && m.bm.BlockLen == s.blockLen() {
			return m, nil
		}
	}
	m := &sweepModel{model: s.Model} // lint:alloc once per model and geometry a stack sweeps
	if _, _, err := s.initModel(&m.bm); err != nil {
		return nil, err
	}
	if len(st.models) == maxSweepModels {
		st.models = append(st.models[:0], st.models[1:]...)
	}
	st.models = append(st.models, m) // lint:alloc grows to maxSweepModels once per stack
	return m, nil
}
