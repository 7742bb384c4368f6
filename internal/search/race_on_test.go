//go:build race

package search

// raceEnabled reports whether the race detector is compiled in; the shed
// pin skips under its slowdown, which turns seconds of single-goroutine
// search into minutes.
const raceEnabled = true
