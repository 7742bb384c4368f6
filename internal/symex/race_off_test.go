//go:build !race

package symex_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
