package search

import (
	"context"
	"testing"
	"time"

	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/report"
)

// lockSites returns the MutexLock locations in fn, in program order.
func lockSites(p *mir.Program, fn string) []mir.Loc {
	var out []mir.Loc
	f := p.Funcs[fn]
	for _, blk := range f.Blocks {
		for i, in := range blk.Instrs {
			if in.Op == mir.MutexLock {
				out = append(out, mir.Loc{Fn: fn, Block: blk.ID, Index: i})
			}
		}
	}
	return out
}

// triageSrc has one real lock-order inversion (t1fn/t2fn) and one lock
// pair a naive checker flags but that can never deadlock (t1fn/t3fn).
const triageSrc = `
int a;
int b;
int c;

// Real inversion: t1 takes a->b, t2 takes b->a.
int t1fn(int x) {
	lock(&a);
	lock(&b);
	unlock(&b);
	unlock(&a);
	return 0;
}
int t2fn(int x) {
	lock(&b);
	lock(&a);
	unlock(&a);
	unlock(&b);
	return 0;
}
// Consistent order: c then a — can never deadlock with t3 alone.
int t3fn(int x) {
	lock(&c);
	lock(&a);
	unlock(&a);
	unlock(&c);
	return 0;
}
int main() {
	int t1 = thread_create(t1fn, 0);
	int t2 = thread_create(t2fn, 0);
	int t3 = thread_create(t3fn, 0);
	thread_join(t1);
	thread_join(t2);
	thread_join(t3);
	return 0;
}`

// triageReports compiles triageSrc and builds the "static analyzer"
// output: suspected deadlock 1 (real) = inner locks of t1fn/t2fn;
// suspected deadlock 2 (false positive) = inner locks of t1fn/t3fn (both
// acquire a — a naive checker flags the pair).
func triageReports() (prog *mir.Program, real, fp *report.Report) {
	prog = lang.MustCompile("triage.c", triageSrc)
	t1Locks := lockSites(prog, "t1fn")
	t2Locks := lockSites(prog, "t2fn")
	t3Locks := lockSites(prog, "t3fn")
	real = report.SuspectedDeadlock("triage.c", []mir.Loc{t1Locks[1], t2Locks[1]})
	fp = report.SuspectedDeadlock("triage.c", []mir.Loc{t1Locks[1], t3Locks[1]})
	return prog, real, fp
}

// TestStaticAnalyzerTriage exercises the §8 "complementing static analysis
// tools" usage: a checker reports two suspected deadlocks; ESD confirms
// the real one and rejects the false positive (the lock pair that is
// always taken in a consistent order).
func TestStaticAnalyzerTriage(t *testing.T) {
	prog, real, fp := triageReports()
	res, err := Synthesize(context.Background(), prog, real, Options{Strategy: StrategyESD, Budget: 60 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatalf("true positive not confirmed (steps=%d)", res.Steps)
	}

	res, err = Synthesize(context.Background(), prog, fp, Options{Strategy: StrategyESD, Budget: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != nil {
		t.Fatalf("false positive 'confirmed': %v", res.Found.Deadlock)
	}
}

// TestPatchValidation exercises §5.2's fix-checking workflow: after the
// developer patches the bug, re-running ESD against the same report finds
// no path — evidence the patch actually removed the bug rather than just
// lowering its probability.
func TestPatchValidation(t *testing.T) {
	buggy := `
int a;
int b;
int t1fn(int x) { lock(&a); lock(&b); unlock(&b); unlock(&a); return 0; }
int t2fn(int x) { lock(&b); lock(&a); unlock(&a); unlock(&b); return 0; }
int main() {
	int t1 = thread_create(t1fn, 0);
	int t2 = thread_create(t2fn, 0);
	thread_join(t1);
	thread_join(t2);
	return 0;
}`
	// The patch: consistent lock ordering in t2fn. Same layout otherwise,
	// so the report's locations still resolve.
	patched := `
int a;
int b;
int t1fn(int x) { lock(&a); lock(&b); unlock(&b); unlock(&a); return 0; }
int t2fn(int x) { lock(&a); lock(&b); unlock(&b); unlock(&a); return 0; }
int main() {
	int t1 = thread_create(t1fn, 0);
	int t2 = thread_create(t2fn, 0);
	thread_join(t1);
	thread_join(t2);
	return 0;
}`
	progBuggy := lang.MustCompile("patch.c", buggy)
	t1Locks := lockSites(progBuggy, "t1fn")
	t2Locks := lockSites(progBuggy, "t2fn")
	rep := report.SuspectedDeadlock("patch.c", []mir.Loc{t1Locks[1], t2Locks[1]})

	res, err := Synthesize(context.Background(), progBuggy, rep, Options{Strategy: StrategyESD, Budget: 60 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatal("bug not reproducible before the patch")
	}

	progPatched := lang.MustCompile("patch.c", patched)
	res, err = Synthesize(context.Background(), progPatched, rep, Options{Strategy: StrategyESD, Budget: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != nil {
		t.Fatal("patched program still deadlocks — patch validation failed")
	}
}
