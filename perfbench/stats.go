package main

import (
	"math"
	"slices"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile that leaves at least ten
// samples above it, with its value. Fewer than eleven samples leave no
// such percentile; the maximum is reported as percentile 100.
func tail(xs []float64) (pct int, value float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	for p := 99; p >= 1; p-- {
		r := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-r >= 10 {
			return p, s[r-1]
		}
	}
	if n == 0 {
		return 100, 0
	}
	return 100, s[n-1]
}
