package search

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"esd/internal/apps"
	"esd/internal/telemetry"
)

// committedCheckpoint is the preempted listing1 checkpoint that
// TestCommittedCheckpointResumes resumes.
var committedCheckpoint = filepath.Join("..", "..", "testdata", "listing1.ckpt.json")

// checkpointRestorer returns the resume path of a listing1 search short
// of running the loop: decode, the compatibility checks, the recorder
// restore and worker.restore (the race-detector and plan checks, the pool
// decode and the worker's state). It returns the restored worker, which
// the caller releases, or the first error.
func checkpointRestorer(tb testing.TB) func(data []byte) (*worker, error) {
	tb.Helper()
	a := apps.Get("listing1")
	prog, err := a.Program()
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := a.Coredump()
	if err != nil {
		tb.Fatal(err)
	}
	// The committed checkpoint's options, normalized as Synthesize does.
	opts := Options{Strategy: StrategyESD, Seed: 1, MaxSteps: 50_000_000}
	pl, err := buildPlan(NewProgram(prog), rep, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return func(data []byte) (*worker, error) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return nil, err
		}
		if err := ck.compatible(pl.prog, opts); err != nil {
			return nil, err
		}
		telemetry.NewRecorder(0).Restore(ck.Recorder)
		// A corrupt draw count makes the rng replay long; the deadline
		// turns that into an error.
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		defer cancel()
		w := newWorker(ctx, pl, opts, 0, 1, time.Now())
		if err := w.restore(ck); err != nil {
			return nil, err
		}
		return w, nil
	}
}

// FuzzDecodeCheckpoint feeds arbitrary bytes through checkpointRestorer:
// every input must end in an error or a restored worker, never a panic
// or a hang, and whatever DecodeCheckpoint accepts json.Unmarshal must
// accept and decode to the same Checkpoint. The seed is the committed
// listing1 checkpoint; the corpus in testdata/fuzz adds malformed
// variants of it (see TestCheckpointCorpusRejected).
func FuzzDecodeCheckpoint(f *testing.F) {
	restore := checkpointRestorer(f)
	seed, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	w, err := restore(seed)
	if err != nil {
		f.Fatalf("the seed checkpoint does not restore: %v", err)
	}
	if w.front.size() == 0 {
		f.Fatal("the seed checkpoint restored an empty frontier")
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		if ck, err := DecodeCheckpoint(data); err == nil {
			var want Checkpoint
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("DecodeCheckpoint accepted what json.Unmarshal rejects: %v", err)
			}
			if !reflect.DeepEqual(ck, &want) {
				t.Fatalf("DecodeCheckpoint and json.Unmarshal decode differently:\n%+v\n%+v", ck, &want)
			}
		}
		w, err := restore(data)
		if err != nil {
			return
		}
		// A restored frontier is consistent: every live state has a key
		// per queue, and every heap entry names a live state.
		fr := w.front
		for id, ls := range fr.alive {
			if ls.st.ID != id || len(ls.keys) != fr.numQueues {
				t.Fatalf("alive[%d] holds state %d with %d keys", id, ls.st.ID, len(ls.keys))
			}
		}
		for q, h := range fr.heaps {
			for _, k := range h {
				if _, ok := fr.alive[k.id]; !ok {
					t.Fatalf("heap %d holds dead state %d after restore", q, k.id)
				}
			}
		}
	})
}

// TestCheckpointCorpusRejected: each corpus entry is the committed
// checkpoint with one defect, and the resume path must reject it with the
// matching error. Before the checks existed, a missing pool panicked (the
// fuzzer's own find, fbbe9c33dbfb7fdf, is one), a huge rng draw count or
// a term that shares itself at every level hung the restore, and the rest
// restored states that crash the VM or the frontier later.
func TestCheckpointCorpusRejected(t *testing.T) {
	restore := checkpointRestorer(t)
	for name, want := range map[string]string{
		"fbbe9c33dbfb7fdf":         "no state pool",
		"pool-null":                "no state pool",
		"rng-draws-huge":           "replaying",
		"rng-draws-negative":       "rng draws",
		"term-self-sharing":        "nodes as a tree",
		"object-size-mismatch":     "has size 4 but 1 cells",
		"pointer-object-zero":      "invalid object ID 0",
		"pointer-no-offset":        "has no offset",
		"function-unknown":         "unknown function",
		"frame-block-out-of-range": "outside the function",
		"frame-registers-short":    "registers",
		"cur-out-of-range":         "schedules thread index",
		"root-ids-duplicate":       "two roots with state ID",
	} {
		data := readCorpusEntry(t, filepath.Join("testdata", "fuzz", "FuzzDecodeCheckpoint", name))
		_, err := restore(data)
		if err == nil {
			t.Errorf("%s: restored, want an error mentioning %q", name, want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q, want one mentioning %q", name, err, want)
		}
	}
}

// readCorpusEntry reads the []byte value of a one-argument fuzz corpus
// file.
func readCorpusEntry(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("%s is not a []byte corpus entry", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(body), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
