//go:build race

package jobs

// raceEnabled reports whether the race detector is compiled in; the
// single-goroutine long-record test skips under its ~10x slowdown.
const raceEnabled = true
