package symex_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"esd/internal/apps"
	"esd/internal/mir"
	"esd/internal/search"
	"esd/internal/symex"
)

// committedCheckpoint is a preempted listing1 search written by an
// earlier build (TestCommittedCheckpointResumes resumes it).
var committedCheckpoint = filepath.Join("..", "..", "testdata", "listing1.ckpt.json")

// appCheckpoints runs app's seed-1 search as a preempt/resume chain,
// preempting every `every` polls, and hands each checkpoint to check,
// which returns the decoded checkpoint the next segment resumes. The
// chain stops when the search ends or after maxSegments checkpoints (0:
// no limit); it returns the number of checkpoints.
func appCheckpoints(tb testing.TB, app string, every, maxSegments int, check func(prog *mir.Program, blob []byte) *search.Checkpoint) int {
	tb.Helper()
	a := apps.Get(app)
	prog, err := a.Program()
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := a.Coredump()
	if err != nil {
		tb.Fatal(err)
	}
	var resume *search.Checkpoint
	for n := 0; ; n++ {
		if maxSegments > 0 && n == maxSegments {
			return n
		}
		polls := 0
		res, err := search.Synthesize(context.Background(), search.NewProgram(prog), rep, search.Options{
			Strategy: search.StrategyESD,
			Seed:     1,
			Resume:   resume,
			Preempt: func() bool {
				polls++
				return polls%every == 0
			},
		})
		if err != nil {
			tb.Fatal(err)
		}
		if res.Outcome != search.OutcomePreempted {
			return n
		}
		resume = check(prog, res.Checkpoint)
	}
}

// checkAgainstReference requires the streaming codec to agree with
// encoding/json and the reference codec on one checkpoint: the envelope
// both ways, the pool bytes written from live states, the decoded states
// (Box included), and the bytes written again from the decoded states,
// which share one globals map.
func checkAgainstReference(t *testing.T, prog *mir.Program, blob []byte) *search.Checkpoint {
	t.Helper()
	ck, err := search.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	var want search.Checkpoint
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, &want) {
		t.Fatal("DecodeCheckpoint and json.Unmarshal disagree")
	}
	marshaled, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, marshaled) {
		t.Fatal("Checkpoint.Encode and json.Marshal disagree")
	}
	if prog == nil {
		return ck
	}
	if !bytes.Equal(encoded, blob) {
		t.Fatal("re-encoding the decoded checkpoint changed its bytes")
	}
	refRoots, err := symex.ReferenceDecode(ck.Pool, prog)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := ck.Pool.Decode(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roots, refRoots) {
		t.Fatal("Pool.Decode and the reference decoder built different states")
	}
	ref, err := symex.ReferenceEncode(refRoots)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck.Pool, ref) {
		t.Fatal("the pool differs from the reference encoding of its states")
	}
	if !bytes.Equal(symex.EncodePool(roots), ck.Pool) {
		t.Fatal("re-encoding the decoded states changed the pool")
	}
	for _, st := range roots[1:] {
		if reflect.ValueOf(st.GlobalIDs()).Pointer() != reflect.ValueOf(roots[0].GlobalIDs()).Pointer() {
			t.Fatalf("states %d and %d hold different globals maps", roots[0].ID, st.ID)
		}
	}
	return ck
}

// TestPoolCodecMatchesReference runs a preempt/resume chain of every
// bundled app and checks every checkpoint against the reference codec.
// ls3 and ls4 checkpoint every 3,000 polls, for their first four
// segments (1,140 to 3,604 states on ls3); the rest every 37 polls, or
// more often if the search ends sooner.
func TestPoolCodecMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded codec; the chains take minutes under the race detector")
	}
	check := func(t *testing.T) func(*mir.Program, []byte) *search.Checkpoint {
		return func(prog *mir.Program, blob []byte) *search.Checkpoint {
			return checkAgainstReference(t, prog, blob)
		}
	}
	for _, a := range apps.All() {
		t.Run(a.Name, func(t *testing.T) {
			switch a.Name {
			case "ls3", "ls4":
				if testing.Short() {
					t.Skip("long chain")
				}
				if appCheckpoints(t, a.Name, 3000, 4, check(t)) == 0 {
					t.Fatal("the search never checkpointed")
				}
				return
			}
			for every := 37; appCheckpoints(t, a.Name, every, 0, check(t)) == 0; every /= 2 {
				if every == 1 {
					t.Fatal("the search never checkpointed")
				}
			}
		})
	}
}

// TestCommittedCheckpointCodec: the committed checkpoint, written by an
// earlier build, carries keys this build no longer writes (ctx_tick,
// solver_shared_hits, EpochChecks); decoding must skip them as
// json.Unmarshal does, and its pool must decode as the reference decodes
// it.
func TestCommittedCheckpointCodec(t *testing.T) {
	blob, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	ck := checkAgainstReference(t, nil, blob)
	prog, err := apps.Get("listing1").Program()
	if err != nil {
		t.Fatal(err)
	}
	roots, err := ck.Pool.Decode(prog)
	if err != nil {
		t.Fatal(err)
	}
	refRoots, err := symex.ReferenceDecode(ck.Pool, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roots, refRoots) {
		t.Fatal("Pool.Decode and the reference decoder built different states")
	}
	if !bytes.Equal(symex.EncodePool(roots), ck.Pool) {
		t.Fatal("re-encoding the committed pool's states changed it")
	}
}

// TestDecodedPoolOwnership decodes the committed listing1 pool, four
// roots and one K_S snapshot. Every root, which the search steps next,
// must hold a token that its threads and sync maps carry, and the
// snapshot must hold none, so that forking it is a pure read: forks of
// it stepped on 8 goroutines at once must leave it unchanged (CI runs
// this under the race detector).
func TestDecodedPoolOwnership(t *testing.T) {
	blob, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := search.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := apps.Get("listing1").Program()
	if err != nil {
		t.Fatal(err)
	}
	roots, err := ck.Pool.Decode(prog)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*symex.State
	for _, st := range roots {
		if !st.HoldsToken() || !st.HoldsParts() {
			t.Errorf("root state %d does not hold its threads and sync maps", st.ID)
		}
		for _, snap := range st.Snapshots {
			if !slices.Contains(snaps, snap) {
				snaps = append(snaps, snap)
			}
		}
	}
	if len(roots) != 4 || len(snaps) != 1 {
		t.Fatalf("decoded %d roots and %d snapshots, want 4 and 1", len(roots), len(snaps))
	}
	if snaps[0].HoldsToken() {
		t.Fatal("the decoded K_S snapshot holds a token")
	}
	stepForksConcurrently(t, prog, snaps[0])
}

// ls3Checkpoint returns ls3's program and its seed-1 search checkpointed
// at poll `polls`.
func ls3Checkpoint(tb testing.TB, polls int) (*mir.Program, []byte) {
	tb.Helper()
	var prog *mir.Program
	var blob []byte
	appCheckpoints(tb, "ls3", polls, 1, func(p *mir.Program, b []byte) *search.Checkpoint {
		prog, blob = p, b
		return nil
	})
	if blob == nil {
		tb.Fatalf("ls3 finished before poll %d", polls)
	}
	return prog, blob
}

// FuzzDecodePool feeds arbitrary pools to Pool.Decode against listing1's
// program or ls3's: every input must end in an error or in states, never
// a panic or a hang, and whatever Pool.Decode accepts the reference
// decoder must accept with the same states. The seeds are the committed
// listing1 pool and an ls3 pool of nine states.
func FuzzDecodePool(f *testing.F) {
	blob, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	ck, err := search.DecodeCheckpoint(blob)
	if err != nil {
		f.Fatal(err)
	}
	listing1, err := apps.Get("listing1").Program()
	if err != nil {
		f.Fatal(err)
	}
	ls3, ls3Blob := ls3Checkpoint(f, 10)
	ls3Ck, err := search.DecodeCheckpoint(ls3Blob)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, []byte(ck.Pool))
	f.Add(true, []byte(ls3Ck.Pool))
	f.Fuzz(func(t *testing.T, isLs3 bool, data []byte) {
		prog := listing1
		if isLs3 {
			prog = ls3
		}
		roots, err := symex.Pool(data).Decode(prog)
		if err != nil {
			return
		}
		want, err := symex.ReferenceDecode(data, prog)
		if err != nil {
			t.Fatalf("Pool.Decode accepted a pool the reference decoder rejects: %v", err)
		}
		if !reflect.DeepEqual(roots, want) {
			t.Fatal("Pool.Decode and the reference decoder built different states")
		}
	})
}

// TestPoolRejectsFarSnapshotIndex: a snapshot naming a state further
// ahead than the rest of the input could hold is rejected before any
// shell is allocated for it.
func TestPoolRejectsFarSnapshotIndex(t *testing.T) {
	blob, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := search.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := apps.Get("listing1").Program()
	if err != nil {
		t.Fatal(err)
	}
	pool := strings.Replace(string(ck.Pool), `"state":2}`, `"state":16000000}`, 1)
	if pool == string(ck.Pool) {
		t.Fatal("the committed pool has no snapshot of state 2")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = symex.Pool(pool).Decode(prog)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "invalid state index 16000000") {
		t.Fatalf("decode error %v, want an invalid state index", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting the index allocated %d bytes", n)
	}
}

// TestPoolRejectsUnloggableObject: a freed-log entry packs an object's
// kind into its ID word, so the decoder rejects an object whose kind or
// ID the packing could not hold, before a free could lose either.
func TestPoolRejectsUnloggableObject(t *testing.T) {
	blob, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := search.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := apps.Get("listing1").Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ old, new string }{
		{`{"id":6,"kind":1,`, `{"id":6,"kind":7,`},
		{`{"id":6,"kind":1,`, `{"id":4611686018427387904,"kind":1,`},
	} {
		pool := strings.Replace(string(ck.Pool), c.old, c.new, 1)
		if pool == string(ck.Pool) {
			t.Fatalf("the committed pool has no %s", c.old)
		}
		if _, err := symex.Pool(pool).Decode(prog); err == nil || !strings.Contains(err.Error(), "does not fit the freed log") {
			t.Errorf("%s: decode error %v, want one naming the freed log", c.new, err)
		}
	}
}
