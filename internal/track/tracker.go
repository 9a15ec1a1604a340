package track

import (
	"math"

	"advdet/internal/img"
	"advdet/internal/pipeline"
)

// TrackState is the lifecycle phase of a track.
type TrackState int

const (
	// Tentative tracks have not yet accumulated enough hits.
	Tentative TrackState = iota
	// Confirmed tracks passed the hit threshold.
	Confirmed
	// Deleted tracks exceeded the miss budget and will be pruned.
	Deleted
)

func (s TrackState) String() string {
	switch s {
	case Tentative:
		return "tentative"
	case Confirmed:
		return "confirmed"
	case Deleted:
		return "deleted"
	}
	return "invalid"
}

// Track is one tracked object.
type Track struct {
	ID     int
	Kind   pipeline.Kind
	KF     *Kalman
	State  TrackState
	Hits   int // consecutive matched frames
	Misses int // consecutive unmatched frames
	Age    int // frames since birth
	Score  float64
}

// Box returns the current (predicted/updated) box.
func (t *Track) Box() img.Rect { return t.KF.Box() }

// Config tunes the tracker.
type Config struct {
	// MaxIoUCost gates assignment: pairs with cost 1-IoU above this
	// never match.
	MaxIoUCost float64
	// ConfirmHits promotes a tentative track after this many hits.
	ConfirmHits int
	// MaxMisses deletes a track after this many consecutive misses
	// (coasting budget — a confirmed track survives brief dropouts,
	// e.g. the frame lost to a partial reconfiguration).
	MaxMisses int
}

// DefaultConfig returns sensible defaults for 10-50 fps video.
func DefaultConfig() Config {
	return Config{MaxIoUCost: 0.8, ConfirmHits: 3, MaxMisses: 5}
}

// Tracker maintains the track set across frames.
type Tracker struct {
	Cfg    Config
	tracks []*Track
	nextID int

	// Update's reused working set: the live tracks, the matched
	// detections and the assignment solver.
	live    []*Track
	matched []bool
	hung    hungarian
}

// NewTracker returns an empty tracker.
func NewTracker(cfg Config) *Tracker {
	if cfg.MaxIoUCost <= 0 {
		cfg.MaxIoUCost = 0.8
	}
	if cfg.ConfirmHits <= 0 {
		cfg.ConfirmHits = 3
	}
	if cfg.MaxMisses <= 0 {
		cfg.MaxMisses = 5
	}
	return &Tracker{Cfg: cfg, nextID: 1}
}

// Tracks returns the live (non-deleted) tracks.
func (tr *Tracker) Tracks() []*Track {
	out := make([]*Track, 0, len(tr.tracks))
	for _, t := range tr.tracks {
		if t.State != Deleted {
			out = append(out, t)
		}
	}
	return out
}

// Confirmed returns only confirmed tracks — the tracker's output.
func (tr *Tracker) Confirmed() []*Track {
	out := make([]*Track, 0, len(tr.tracks))
	for _, t := range tr.tracks {
		if t.State == Confirmed {
			out = append(out, t)
		}
	}
	return out
}

// Update advances all tracks one frame and associates the detections:
// predict -> assign (Hungarian over 1-IoU costs) -> update matched,
// coast unmatched, spawn new tracks for unmatched detections.
func (tr *Tracker) Update(dets []pipeline.Detection) {
	// Predict.
	live := tr.live[:0]
	for _, t := range tr.tracks {
		if t.State != Deleted {
			live = append(live, t) // lint:alloc grows the reused live list to the track high-water mark
		}
	}
	tr.live = live
	for _, t := range live {
		t.KF.Predict()
		t.Age++
	}

	matchedDet := grow(tr.matched, len(dets))
	tr.matched = matchedDet
	clear(matchedDet)
	if len(live) > 0 && len(dets) > 0 {
		// The live x dets costs, padded to a square: gated and absent
		// pairs cost pad, which no real assignment reaches.
		const pad = 1e6
		n := max(len(live), len(dets))
		sq := tr.hung.square(n)
		for i := range n {
			for j := range n {
				c := pad
				if i < len(live) && j < len(dets) {
					t, d := live[i], dets[j]
					if c = assocCost(t.Box(), d.Box); c > tr.Cfg.MaxIoUCost || t.Kind != d.Kind {
						c = pad
					}
				}
				sq[i*n+j] = c
			}
		}
		assign := tr.hung.solve(n)
		for i, t := range live {
			j := assign[i]
			if j >= len(dets) || sq[i*n+j] >= pad {
				tr.miss(t)
				continue
			}
			t.KF.Update(dets[j].Box)
			t.Hits++
			t.Misses = 0
			t.Score = dets[j].Score
			if t.State == Tentative && t.Hits >= tr.Cfg.ConfirmHits {
				t.State = Confirmed
			}
			matchedDet[j] = true
		}
	} else {
		for _, t := range live {
			tr.miss(t)
		}
	}

	// Births.
	for j, d := range dets {
		if matchedDet[j] {
			continue
		}
		tr.tracks = append(tr.tracks, &Track{ // lint:alloc one track per newly seen object; tracks are the tracker's output
			ID:    tr.nextID,
			Kind:  d.Kind,
			KF:    NewKalman(d.Box),
			State: Tentative,
			Hits:  1,
			Score: d.Score,
		})
		tr.nextID++
	}

	// Prune deleted tracks.
	kept := tr.tracks[:0]
	for _, t := range tr.tracks {
		if t.State != Deleted {
			kept = append(kept, t) // lint:alloc in-place filter over tr.tracks' own backing array; never grows it
		}
	}
	tr.tracks = kept
}

func (tr *Tracker) miss(t *Track) {
	t.Misses++
	if t.State == Tentative {
		t.Hits = 0 // tentative tracks must hit consecutively
		t.State = Deleted
		return
	}
	if t.Misses > tr.Cfg.MaxMisses {
		t.State = Deleted
	}
}

// assocCost blends IoU overlap with normalized center distance so a
// detection of the same object at a different box scale (e.g. the
// dark pipeline's lamp-pair expansion vs. the HOG window) still
// associates when its center stays close.
func assocCost(a, b img.Rect) float64 {
	iouCost := 1 - a.IoU(b)
	acx, acy := a.Center()
	bcx, bcy := b.Center()
	dx, dy := float64(acx-bcx), float64(acy-bcy)
	dist := math.Hypot(dx, dy)
	diag := math.Hypot(float64(a.W()+b.W())/2, float64(a.H()+b.H())/2)
	if diag <= 0 {
		return iouCost
	}
	distCost := dist / (1.5 * diag)
	if distCost > 1 {
		distCost = 1
	}
	return 0.5*iouCost + 0.5*distCost
}
