package main

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"advdet"
	"advdet/internal/synth"
)

// Pinned values of the paper's timing model. They are fidelity checks,
// not speed metrics: a change that moves them changes what the
// simulated platform models.
const (
	pinnedReconfigMS = 20.57 // 8 MB partial bitstream over DMA-ICAP
	pinnedModelFPS   = 50.2  // vehicle pipeline at 125 MHz on 1920x1080
)

// refFrame is what the serial reference returned for one cycle
// position.
type refFrame struct {
	cond             synth.Condition
	dropped, started bool
	vehicles, peds   []advdet.Detection
}

// reference runs each camera's rendered frames through a serial
// standalone system (parallelism 1, float scoring lane, no
// temporal cache) booted like the camera's stream. The cycle returns
// the stream to its boot state, so position i of the reference checks
// every timed frame at position i of any cycle.
func reference(w *workload, dets advdet.Detectors, frames [][]*synth.Scene) ([][]refFrame, error) {
	ref := make([][]refFrame, len(frames))
	for cam, fr := range frames {
		sys, err := advdet.NewSystem(dets, advdet.WithParallelism(1),
			advdet.WithInitial(w.initial), advdet.WithFPS(w.fps()))
		if err != nil {
			return nil, fmt.Errorf("reference system: %w", err)
		}
		for _, sc := range fr {
			res, err := sys.ProcessFrame(sc)
			if err != nil {
				return nil, fmt.Errorf("reference camera %d: %w", cam, err)
			}
			ref[cam] = append(ref[cam], refFrame{
				cond: res.Cond, dropped: res.VehicleDropped, started: res.ReconfigStarted,
				vehicles: res.Vehicles, peds: res.Pedestrians,
			})
		}
	}
	return ref, nil
}

// checkFrame returns why a timed frame disagrees with the reference,
// or "" when it agrees: the same condition and reconfiguration flags,
// and the same vehicle and pedestrian boxes, in the same order when
// ordered is set. Scores are not compared; the quantized lane may move
// them within its error bound, and with them the order of boxes whose
// scores lie that close, so a quantized stream is held to the same
// box set only.
func checkFrame(o frameObs, ref refFrame, ordered bool) string {
	switch {
	case o.err != nil && errors.Is(o.err, advdet.ErrOverloaded):
		return "shed: " + o.err.Error()
	case o.err != nil:
		return "error: " + o.err.Error()
	case o.res.VehicleStale:
		return "stale vehicle frame with no fault injected"
	case o.res.Cond != ref.cond:
		return fmt.Sprintf("condition %v, reference %v", o.res.Cond, ref.cond)
	case o.res.VehicleDropped != ref.dropped || o.res.ReconfigStarted != ref.started:
		return fmt.Sprintf("dropped/started %v/%v, reference %v/%v",
			o.res.VehicleDropped, o.res.ReconfigStarted, ref.dropped, ref.started)
	case !sameBoxes(o.res.Vehicles, ref.vehicles, ordered):
		return fmt.Sprintf("vehicle boxes %v, reference %v", boxes(o.res.Vehicles), boxes(ref.vehicles))
	case !sameBoxes(o.res.Pedestrians, ref.peds, ordered):
		return fmt.Sprintf("pedestrian boxes %v, reference %v", boxes(o.res.Pedestrians), boxes(ref.peds))
	}
	return ""
}

func sameBoxes(a, b []advdet.Detection, ordered bool) bool {
	if !ordered {
		a, b = slices.Clone(a), slices.Clone(b)
		slices.SortFunc(a, byBox)
		slices.SortFunc(b, byBox)
	}
	return slices.EqualFunc(a, b, func(x, y advdet.Detection) bool {
		return x.Box == y.Box && x.Kind == y.Kind
	})
}

func byBox(x, y advdet.Detection) int {
	return cmp.Or(cmp.Compare(x.Kind, y.Kind),
		cmp.Compare(x.Box.X0, y.Box.X0), cmp.Compare(x.Box.Y0, y.Box.Y0),
		cmp.Compare(x.Box.X1, y.Box.X1), cmp.Compare(x.Box.Y1, y.Box.Y1))
}

func boxes(ds []advdet.Detection) []advdet.Rect {
	out := make([]advdet.Rect, len(ds))
	for i, d := range ds {
		out[i] = d.Box
	}
	return out
}

// checkFrames checks every timed frame against the reference and
// returns one message per failing frame, counted by camera and
// position.
func checkFrames(obs []frameObs, ref [][]refFrame, ordered bool) []string {
	var bad []string
	for i, o := range obs {
		if why := checkFrame(o, ref[o.cam][o.pos], ordered); why != "" {
			bad = append(bad, fmt.Sprintf("frame %d (camera %d, position %d): %s", i, o.cam, o.pos, why))
		}
	}
	return bad
}

// checkInvariants checks the paper's invariants on one stream's
// lifetime counters and its timed frames (in order): pedestrians
// processed on every frame, exactly one dropped vehicle frame per
// dusk-dark switch, each switch taking the pinned reconfiguration
// time in one attempt.
func checkInvariants(name string, st advdet.Stats, obs []frameObs) []string {
	var bad []string
	if st.PedestrianFrames != st.Frames {
		bad = append(bad, fmt.Sprintf("%s: pedestrians ran on %d of %d frames", name, st.PedestrianFrames, st.Frames))
	}
	if st.VehicleDropped != len(st.Reconfigs) {
		bad = append(bad, fmt.Sprintf("%s: %d dropped vehicle frames for %d switches", name, st.VehicleDropped, len(st.Reconfigs)))
	}
	for _, rc := range st.Reconfigs {
		if rc.DonePS == 0 {
			continue // the last switch may still be streaming
		}
		got := float64(rc.DonePS-rc.StartPS) / 1e9
		if rc.Attempts != 1 || math.Abs(got-pinnedReconfigMS) > 0.005 {
			bad = append(bad, fmt.Sprintf("%s: reconfiguration at frame %d took %.4f ms in %d attempts, pinned %.2f ms in 1",
				name, rc.Frame, got, rc.Attempts, pinnedReconfigMS))
		}
	}
	for i := 1; i < len(obs); i++ {
		if obs[i-1].err != nil || obs[i].err != nil {
			continue // already failed by the frame check
		}
		prev, cur := obs[i-1].res, obs[i].res
		switched := (prev.Cond == synth.Dark) != (cur.Cond == synth.Dark)
		if switched != cur.ReconfigStarted || cur.VehicleDropped != cur.ReconfigStarted {
			bad = append(bad, fmt.Sprintf("%s: frame %d switched=%v started=%v dropped=%v",
				name, i, switched, cur.ReconfigStarted, cur.VehicleDropped))
		}
	}
	return bad
}

// checkModel checks the platform model's pinned frame rate.
func checkModel() []string {
	if got := math.Round(advdet.PipelineFPS(1920, 1080)*10) / 10; got != pinnedModelFPS {
		return []string{fmt.Sprintf("modelled pipeline rate %.1f fps, pinned %.1f", got, pinnedModelFPS)}
	}
	return nil
}

// timedPass is one timed pass's frames and the streams that ran them.
type timedPass struct {
	obs     []frameObs
	streams []*advdet.Stream
}

// checkRun checks every pass's frames against the reference and each
// stream's invariants, returning one message per failing frame and per
// broken invariant. A full-length run of a reconfiguring workload must
// also hold its minimum of reconfiguration frames.
func checkRun(w *workload, ref [][]refFrame, passes []timedPass, full bool) []string {
	var bad []string
	for _, p := range passes {
		// The instrumented profile scores in the quantized lane.
		bad = append(bad, checkFrames(p.obs, ref, !w.profile)...)
		perCam := byCamera(p.obs, len(p.streams))
		for cam, st := range p.streams {
			bad = append(bad, checkInvariants(st.Name(), st.Stats(), perCam[cam])...)
		}
	}
	bad = append(bad, checkModel()...)
	if full && w.minReconfigs > 0 {
		n := 0
		for _, o := range passes[0].obs {
			if o.res.ReconfigStarted || o.res.VehicleDropped {
				n++
			}
		}
		if n < w.minReconfigs {
			bad = append(bad, fmt.Sprintf("%d reconfiguration frames in the timed pass, want at least %d", n, w.minReconfigs))
		}
	}
	return bad
}

// byCamera splits a pass's frames per camera, keeping their order.
func byCamera(obs []frameObs, cameras int) [][]frameObs {
	out := make([][]frameObs, cameras)
	for _, o := range obs {
		out[o.cam] = append(out[o.cam], o)
	}
	return out
}
