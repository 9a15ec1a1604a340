//go:build race

package par

const raceEnabled = true
