//go:build !race

package search

import "testing"

// TestCheckpointCodecAllocs bounds the allocations per state of encoding
// and decoding ls3's checkpoint at poll 30,000 (the race detector
// allocates, so this builds only without it). The reflection codec made
// about 36 objects per state to encode and 259 to decode; this one makes
// 0.1 and 54.
func TestCheckpointCodecAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30,000-poll ls3 search")
	}
	prog, blob, ck, roots := codecFixture(t)
	n := float64(len(roots))
	enc := testing.AllocsPerRun(2, func() {
		if _, err := encodeCheckpoint(ck, roots); err != nil {
			t.Fatal(err)
		}
	}) / n
	dec := testing.AllocsPerRun(2, func() {
		if _, err := decodeCheckpoint(prog, blob); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("%d states: %.1f allocations per state to encode, %.1f to decode", len(roots), enc, dec)
	if enc > 2 {
		t.Errorf("encoding allocates %.1f objects per state, want at most 2", enc)
	}
	if dec > 80 {
		t.Errorf("decoding allocates %.1f objects per state, want at most 80", dec)
	}
}
