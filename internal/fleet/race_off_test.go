//go:build !race

package fleet

// raceEnabled reports whether the race detector is active; its
// runtime instrumentation allocates, so alloc-regression tests skip.
const raceEnabled = false
