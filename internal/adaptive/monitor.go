// Package adaptive implements the paper's primary contribution: the
// adaptive vehicle-detection system that switches detection algorithm
// with the ambient lighting condition by partially reconfiguring the
// vehicle-detection block, while the static partition (pedestrian
// detection, capture, PR controller) runs without interruption.
//
// lint:simtime
package adaptive

import (
	"fmt"

	"advdet/internal/synth"
)

// Monitor classifies the external light-intensity signal into the
// three conditions with hysteresis and debouncing, so sensor noise at
// a threshold does not cause reconfiguration thrash ("An external
// signal which indicates the light intensity changes is considered to
// trigger the reconfiguration", §I).
type Monitor struct {
	// Hysteresis bands in lux: the condition moves down (darker) when
	// lux falls below *Down and up when it rises above *Up.
	DayDuskDown, DayDuskUp   float64
	DuskDarkDown, DuskDarkUp float64
	// Debounce is how many consecutive frames must agree before the
	// condition actually switches.
	Debounce int

	cur       synth.Condition
	pending   synth.Condition
	pendCount int
}

// NewMonitor returns a monitor with the default bands, starting in
// the given condition.
func NewMonitor(initial synth.Condition) *Monitor {
	return &Monitor{
		DayDuskDown: 2000, DayDuskUp: 4000,
		DuskDarkDown: 40, DuskDarkUp: 70,
		Debounce: 3,
		cur:      initial,
		pending:  initial,
	}
}

// Validate reports whether the band configuration is coherent: each
// hysteresis pair must be ordered, the dusk/dark band must sit below
// the day/dusk band, and debouncing needs at least one frame.
// NewMonitor returns a valid configuration; callers that mutate the
// exported bands should re-run Validate — System.ProcessFrame does so
// every frame and surfaces the error.
func (m *Monitor) Validate() error {
	if m.DayDuskDown > m.DayDuskUp || m.DuskDarkDown > m.DuskDarkUp ||
		m.DuskDarkUp > m.DayDuskDown || m.Debounce < 1 {
		return fmt.Errorf("adaptive: invalid monitor bands %+v", m) // lint:alloc cold error path; bands mutated into an incoherent configuration
	}
	return nil
}

// classify maps a lux reading to the raw condition given the current
// state (hysteresis makes this state-dependent).
func (m *Monitor) classify(lux float64) synth.Condition {
	switch m.cur {
	case synth.Day:
		if lux < m.DayDuskDown {
			if lux < m.DuskDarkDown {
				return synth.Dark
			}
			return synth.Dusk
		}
		return synth.Day
	case synth.Dusk:
		if lux > m.DayDuskUp {
			return synth.Day
		}
		if lux < m.DuskDarkDown {
			return synth.Dark
		}
		return synth.Dusk
	default: // Dark
		if lux > m.DayDuskUp {
			return synth.Day
		}
		if lux > m.DuskDarkUp {
			return synth.Dusk
		}
		return synth.Dark
	}
}

// Update feeds one sensor reading and returns the (debounced)
// current condition. Band sanity is Validate's job, not Update's:
// classification on unvalidated bands is merely unspecified, never a
// crash.
func (m *Monitor) Update(lux float64) synth.Condition {
	raw := m.classify(lux)
	if raw == m.cur {
		m.pending = m.cur
		m.pendCount = 0
		return m.cur
	}
	if raw != m.pending {
		m.pending = raw
		m.pendCount = 1
	} else {
		m.pendCount++
	}
	if m.pendCount >= m.Debounce {
		m.cur = m.pending
		m.pendCount = 0
	}
	return m.cur
}

// Current returns the present condition without feeding a sample.
func (m *Monitor) Current() synth.Condition { return m.cur }
