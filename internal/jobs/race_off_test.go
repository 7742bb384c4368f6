//go:build !race

package jobs

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
