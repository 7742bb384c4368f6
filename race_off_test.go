//go:build !race

package esd_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
