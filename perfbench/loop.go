package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"advdet"
	"advdet/internal/synth"
)

// processor runs one frame of camera cam.
type processor func(ctx context.Context, cam int, sc *synth.Scene) (advdet.FrameResult, error)

// frameObs is one offered frame: which camera and cycle position it
// was, its latency and what the system returned.
type frameObs struct {
	cam, pos int
	// lat runs from the call (closed loop) or from the frame's due
	// time (open loop) to the return; call is the call alone.
	lat, call time.Duration
	res       advdet.FrameResult
	err       error
}

// pass is one timed run over the rendered frames.
type pass struct {
	obs  []frameObs
	wall time.Duration
	// genLag is the furthest the open-loop generator woke past a due
	// time it was waiting for.
	genLag time.Duration
	// mallocs and allocBytes are the heap objects and bytes allocated
	// by the whole process during the pass.
	mallocs, allocBytes uint64
}

// limits bound a pass: it runs for seconds, except that a cap on
// frames per camera (smoke runs) ends it sooner.
type limits struct {
	seconds float64
	frames  int
}

// warmUp offers every rendered frame of each camera once, untimed, so
// pools, caches and the allocator reach steady state and the stream is
// back at the start of its cycle.
func warmUp(ctx context.Context, frames [][]*synth.Scene, proc processor) error {
	errs := make([]error, len(frames))
	var wg sync.WaitGroup
	for cam := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sc := range frames[cam] {
				if _, err := proc(ctx, cam, sc); err != nil {
					errs[cam] = fmt.Errorf("warm-up camera %d: %w", cam, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPass drives every camera from its own goroutine: in a closed loop
// when the workload has no rate, otherwise open loop, each frame
// falling due at the camera's fixed rate.
func runPass(ctx context.Context, w *workload, frames [][]*synth.Scene, proc processor, lim limits) pass {
	per := make([][]frameObs, len(frames))
	lags := make([]time.Duration, len(frames))
	dur := time.Duration(lim.seconds * float64(time.Second))
	// Every pass starts from a collected heap, so the set-up's and an
	// earlier pass's garbage is not charged to it.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for cam := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.rate > 0 {
				per[cam], lags[cam] = openLoop(ctx, w, cam, frames[cam], proc, start, dur, lim.frames)
			} else {
				per[cam] = closedLoop(ctx, w, cam, frames[cam], proc, start, dur, lim.frames)
			}
		}()
	}
	wg.Wait()
	p := pass{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	for cam := range per {
		p.obs = append(p.obs, per[cam]...)
		p.genLag = max(p.genLag, lags[cam])
	}
	return p
}

// closedLoop offers the next frame as soon as the previous returns and
// stops at a cycle boundary once dur has passed and at least
// w.minCycles cycles ran, so every pass holds whole cycles and the
// same mix of conditions.
func closedLoop(ctx context.Context, w *workload, cam int, frames []*synth.Scene,
	proc processor, start time.Time, dur time.Duration, capFrames int) []frameObs {
	obs := make([]frameObs, 0, 256)
	for k := 0; ; k++ {
		pos := k % len(frames)
		if capFrames > 0 && k >= capFrames {
			break
		}
		if capFrames == 0 && pos == 0 && k >= w.minCycles*len(frames) && time.Since(start) >= dur {
			break
		}
		t0 := time.Now()
		res, err := proc(ctx, cam, frames[pos])
		d := time.Since(t0)
		obs = append(obs, frameObs{cam: cam, pos: pos, lat: d, call: d, res: res, err: err})
	}
	return obs
}

// openLoop offers frame k of camera cam when it falls due: k camera
// periods after start, the cameras' phases spread evenly over one
// period. A stream takes its frames in order, so a frame that falls
// due while the previous one is still running is offered late, and
// its latency, timed from the due time, carries that wait. It stops
// at the first cycle boundary due after dur, so every pass offers
// each rendered frame equally often.
func openLoop(ctx context.Context, w *workload, cam int, frames []*synth.Scene,
	proc processor, start time.Time, dur time.Duration, capFrames int) ([]frameObs, time.Duration) {
	period := time.Second / time.Duration(w.rate)
	offset := period * time.Duration(cam) / time.Duration(w.cameras)
	obs := make([]frameObs, 0, int(dur/period)+1)
	var lag time.Duration
	for k := 0; ; k++ {
		due := start.Add(offset + time.Duration(k)*period)
		if (capFrames > 0 && k >= capFrames) || (capFrames == 0 && k%len(frames) == 0 && due.Sub(start) >= dur) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			lag = max(lag, time.Since(due))
		}
		pos := k % len(frames)
		t0 := time.Now()
		res, err := proc(ctx, cam, frames[pos])
		obs = append(obs, frameObs{cam: cam, pos: pos, lat: time.Since(due), call: time.Since(t0), res: res, err: err})
	}
	return obs, lag
}
