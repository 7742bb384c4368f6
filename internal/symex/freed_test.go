package symex

import (
	"bytes"
	"testing"

	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/solver"
)

// runPastReturnOf steps st concretely through the next Ret of fn, so the
// returning frame's stack objects are freed.
func runPastReturnOf(t *testing.T, e *Engine, st *State, fn string) {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		in := st.CurrentInstr()
		atRet := in != nil && st.Loc().Fn == fn && in.Op == mir.Ret
		succ, err := e.Step(st)
		if err != nil || len(succ) != 1 {
			t.Fatalf("step: %d successors, err %v (%s)", len(succ), err, st.Summary())
		}
		if atRet {
			return
		}
	}
	t.Fatalf("%s never returned (%s)", fn, st.Summary())
}

// TestFreedMemoryCrashes pins the crash of every access to freed memory:
// loads, stores and frees through a returned local's address, heap double
// frees and use after free, dangling pointers after the stack was reused
// by another call, after a fork, and across a checkpoint round trip
// (including the older encoding that kept a freed object's cells).
func TestFreedMemoryCrashes(t *testing.T) {
	const escapeScalar = `
int *escape() { int x; x = 1; return &x; }
`
	for _, c := range []struct {
		name, src, want string
		kind            CrashKind
	}{
		{"load-after-return", escapeScalar + `
int main() { int *p = escape(); return *p; }`,
			`use of freed memory (obj2 "")`, CrashSegFault},
		{"store-after-return", escapeScalar + `
int main() { int *p = escape(); *p = 3; return 0; }`,
			`use of freed memory (obj2 "")`, CrashSegFault},
		{"free-after-return", escapeScalar + `
int main() { int *p = escape(); free(p); return 0; }`,
			`free of non-heap memory (stack object "")`, CrashInvalidFree},
		{"free-of-global", `
int g[2];
int main() { free(g); return 0; }`,
			`free of non-heap memory (global object "g")`, CrashInvalidFree},
		{"heap-double-free", `
int main() { int *p = malloc(2); free(p); free(p); return 0; }`,
			`double free of obj2`, CrashInvalidFree},
		{"heap-use-after-free", `
int main() { int *p = malloc(2); p[1] = 4; free(p); return p[1]; }`,
			`use of freed memory (obj2 "")`, CrashSegFault},
		{"dangling-after-stack-reuse", `
int *escape() { int a[3]; a[2] = 7; return &a[1]; }
int other() { int b[3]; b[0] = 1; b[1] = 2; b[2] = 3; return b[1]; }
int reuse() { int y; y = 9; return y; }
int main() { int *p = escape(); other(); reuse(); return p[1]; }`,
			`use of freed memory (obj3 "")`, CrashSegFault},
		{"scalar-dangling-after-stack-reuse", escapeScalar + `
int reuse() { int y; y = 9; return y; }
int main() { int *p = escape(); reuse(); reuse(); return *p; }`,
			`use of freed memory (obj2 "")`, CrashSegFault},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := runConcrete(t, c.src)
			if st.Status != StateCrashed || st.Crash.Kind != c.kind || st.Crash.Message != c.want {
				t.Fatalf("got %s (%q), want %s: %q", st.Summary(), crashMessage(st), c.kind, c.want)
			}
		})
	}

	t.Run("both-fork-siblings", func(t *testing.T) {
		terms := exploreAll(t, `
int *escape(int c) {
	int a[3];
	if (c == 'x') a[0] = 1; else a[0] = 2;
	return &a[1];
}
int main() { int *p = escape(getchar()); return *p; }`, 10)
		if len(terms) != 2 {
			t.Fatalf("%d terminal states, want 2", len(terms))
		}
		for _, st := range terms {
			if st.Status != StateCrashed || st.Crash.Message != `use of freed memory (obj4 "")` {
				t.Errorf("sibling %s (%q), want the freed-memory crash", st.Summary(), crashMessage(st))
			}
		}
	})

	// A state that holds a dangling pointer survives a checkpoint round
	// trip: the resumed state crashes exactly as the original would.
	const danglingSrc = `
int *escape() { int a[3]; a[1] = 5; return &a[1]; }
int main() { int *p = escape(); int q = 2; return *p + q; }`
	const danglingWant = `use of freed memory (obj3 "")`
	checkpointed := func(t *testing.T) (*Engine, Pool) {
		t.Helper()
		prog := lang.MustCompile("t.c", danglingSrc)
		e := New(prog, solver.New())
		st, err := e.InitialState()
		if err != nil {
			t.Fatal(err)
		}
		runPastReturnOf(t, e, st, "escape")
		return e, EncodePool([]*State{st})
	}
	resume := func(t *testing.T, orig *Engine, p Pool) {
		t.Helper()
		roots, err := p.Decode(orig.Prog)
		if err != nil {
			t.Fatal(err)
		}
		e := New(orig.Prog, solver.New())
		e.RestoreCounters(orig.CheckpointCounters())
		st, err := e.Run(roots[0], 10_000)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != StateCrashed || st.Crash.Message != danglingWant {
			t.Fatalf("resumed state %s (%q), want %q", st.Summary(), crashMessage(st), danglingWant)
		}
	}
	t.Run("checkpoint-round-trip", func(t *testing.T) {
		e, p := checkpointed(t)
		resume(t, e, p)
	})
	t.Run("old-format-freed-cells", func(t *testing.T) {
		// Earlier encoders wrote a freed stack object with its size and
		// cells; such a checkpoint must resume to the same crash. The
		// returned frame freed escape's array (obj3, 3 cells) and the
		// one-cell slot that pointed at it (obj2).
		e, p := checkpointed(t)
		for freed, old := range map[string]string{
			`{"id":2,"kind":1,"size":0,"freed":true,"cells":[]}`: `{"id":2,"kind":1,"size":1,"freed":true,"cells":[{}]}`,
			`{"id":3,"kind":1,"size":0,"freed":true,"cells":[]}`: `{"id":3,"kind":1,"size":3,"freed":true,"cells":[{},{},{}]}`,
		} {
			if bytes.Count(p, []byte(freed)) != 1 {
				t.Fatalf("pool does not hold %s once:\n%s", freed, p)
			}
			p = bytes.Replace(p, []byte(freed), []byte(old), 1)
		}
		if bytes.Contains(p, []byte(`"freed":true,"cells":[]`)) {
			t.Fatalf("pool holds more freed objects than obj2 and obj3:\n%s", p)
		}
		resume(t, e, p)
	})
}
