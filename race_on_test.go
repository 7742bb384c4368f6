//go:build race

package esd_test

// raceEnabled reports whether the race detector is compiled in; the
// wall-clock gates on multi-second ls4 syntheses skip under its ~10x
// slowdown, which would measure the detector, not the search.
const raceEnabled = true
