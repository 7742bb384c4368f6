//go:build race

package symex_test

// raceEnabled reports whether the race detector is compiled in; the
// reference-codec chains skip under its slowdown, which turns seconds of
// single-threaded encoding into minutes.
const raceEnabled = true
