package search

import (
	"context"
	"testing"

	"esd/internal/apps"
	"esd/internal/mir"
	"esd/internal/symex"
)

// ls3Checkpoint returns ls3's program and its seed-1 search preempted at
// poll `polls`.
func ls3Checkpoint(tb testing.TB, polls int) (*mir.Program, []byte) {
	tb.Helper()
	a := apps.Get("ls3")
	prog, err := a.Program()
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := a.Coredump()
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	res, err := Synthesize(context.Background(), NewProgram(prog), rep, Options{
		Strategy: StrategyESD,
		Seed:     1,
		Preempt: func() bool {
			n++
			return n == polls
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if res.Outcome != OutcomePreempted {
		tb.Fatalf("ls3 finished before poll %d", polls)
	}
	return prog, res.Checkpoint
}

// codecFixture is ls3's checkpoint at poll 30,000 (3,602 states, 11.9
// MB), decoded.
func codecFixture(tb testing.TB) (prog *mir.Program, blob []byte, ck *Checkpoint, roots []*symex.State) {
	prog, blob = ls3Checkpoint(tb, 30_000)
	ck, err := DecodeCheckpoint(blob)
	if err != nil {
		tb.Fatal(err)
	}
	if roots, err = ck.Pool.Decode(prog); err != nil {
		tb.Fatal(err)
	}
	return prog, blob, ck, roots
}

// encodeCheckpoint writes ck with its pool written again from roots, as a
// preempted search writes its checkpoint.
func encodeCheckpoint(ck *Checkpoint, roots []*symex.State) ([]byte, error) {
	c := *ck
	return c.encode(roots)
}

// decodeCheckpoint decodes a checkpoint and its pool, as a resume does.
func decodeCheckpoint(prog *mir.Program, blob []byte) ([]*symex.State, error) {
	ck, err := DecodeCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	return ck.Pool.Decode(prog)
}

// BenchmarkCheckpointCodec encodes and decodes ls3's checkpoint at poll
// 30,000: encode writes the envelope and the pool of the states, decode
// is DecodeCheckpoint and Pool.Decode.
func BenchmarkCheckpointCodec(b *testing.B) {
	prog, blob, ck, roots := codecFixture(b)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(blob)))
		for b.Loop() {
			if _, err := encodeCheckpoint(ck, roots); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(blob)))
		for b.Loop() {
			if _, err := decodeCheckpoint(prog, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
