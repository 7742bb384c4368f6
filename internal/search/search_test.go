package search

import (
	"context"
	"testing"
	"time"

	"esd/internal/lang"
	"esd/internal/replay"
	"esd/internal/report"
	"esd/internal/solver"
	"esd/internal/symex"
	"esd/internal/trace"
	"esd/internal/usersite"
)

// listing1 is the paper's running example (Listing 1): two threads
// executing CriticalSection deadlock iff mode==MOD_Y && idx==1, which in
// turn requires getchar()=='m' and getenv("mode")[0]=='Y'.
const listing1 = `
int idx;
int mode;
int M1;
int M2;

int critical_section(int tid) {
	lock(&M1);
	lock(&M2);
	int work = 0;
	if (mode == 2 && idx == 1) {
		unlock(&M1);
		work = work + tid;
		lock(&M1);
	}
	unlock(&M2);
	unlock(&M1);
	return work;
}

int main() {
	idx = 0;
	if (getchar() == 'm') {
		idx++;
	}
	if (getenv("mode")[0] == 'Y') {
		mode = 2;
	} else {
		mode = 3;
	}
	int t1 = thread_create(critical_section, 1);
	int t2 = thread_create(critical_section, 2);
	thread_join(t1);
	thread_join(t2);
	return 0;
}`

// listing1Report builds the deadlock coredump by simulating the user site.
func listing1Report(t *testing.T) (*report.Report, *symex.State) {
	t.Helper()
	prog := lang.MustCompile("listing1.c", listing1)
	in := &usersite.Inputs{Stdin: []int64{'m'}, Env: map[string]string{"mode": "Y"}}
	st, _, err := usersite.Reproduce(prog, in, usersite.Options{Seeds: 4000, PreemptPercent: 40})
	if err != nil {
		t.Fatalf("user site never deadlocked: %v", err)
	}
	rep, err := report.FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != report.KindDeadlock {
		t.Fatalf("expected deadlock report, got %v", rep.Kind)
	}
	return rep, st
}

func TestListing1EndToEnd(t *testing.T) {
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)

	res, err := Synthesize(context.Background(), prog, rep, Options{
		Strategy: StrategyESD,
		Budget:   60 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatalf("ESD did not synthesize the deadlock (timedOut=%v, steps=%d, otherBugs=%v)",
			res.TimedOut, res.Steps, res.OtherBugs)
	}

	// The synthesized inputs must be the ones the bug requires.
	sol := solver.New()
	ex, err := trace.FromState(res.Found, sol)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Getchar(0); got != 'm' {
		t.Errorf("synthesized getchar = %d, want 'm'", got)
	}
	env := ex.Getenv("mode")
	if len(env) == 0 || env[0] != 'Y' {
		t.Errorf("synthesized getenv(mode) = %v, want leading 'Y'", env)
	}

	// Strict playback must deterministically reproduce the deadlock.
	for i := 0; i < 3; i++ {
		p, err := replay.NewPlayer(prog, ex, replay.Strict)
		if err != nil {
			t.Fatal(err)
		}
		final, err := p.Run(1_000_000)
		if err != nil {
			t.Fatalf("strict playback diverged: %v", err)
		}
		if final.Status != symex.StateDeadlocked {
			t.Fatalf("strict playback run %d: %v, want deadlock", i, final.Status)
		}
		if !rep.Matches(final) {
			t.Fatalf("playback deadlock does not match report: %v", final.Deadlock)
		}
	}

	// Happens-before playback reproduces it too.
	p, err := replay.NewPlayer(prog, ex, replay.HappensBefore)
	if err != nil {
		t.Fatal(err)
	}
	final, err := p.Run(1_000_000)
	if err != nil {
		t.Fatalf("hb playback diverged: %v", err)
	}
	if final.Status != symex.StateDeadlocked {
		t.Fatalf("hb playback: %v, want deadlock", final.Status)
	}
}

func TestListing1IntermediateGoalsFound(t *testing.T) {
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)
	res, err := Synthesize(context.Background(), prog, rep, Options{Strategy: StrategyESD, Budget: 60 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatal("synthesis failed")
	}
	if res.IntermediateGoalSets == 0 {
		t.Error("static phase produced no intermediate goals for listing1 (mode/idx stores should qualify)")
	}
}

func TestCrashSynthesisSimple(t *testing.T) {
	// A crash guarded by input conditions: ESD must find inputs that
	// reach the faulting statement.
	src := `
int check(int a, int b) {
	if (a * 3 - b == 7) {
		if (b > 10) {
			return 1;
		}
	}
	return 0;
}
int main() {
	int a = input("a");
	int b = input("b");
	int *p = 0;
	if (check(a, b)) {
		return *p;   // crash site
	}
	return 0;
}`
	prog := lang.MustCompile("crash.c", src)
	// User-site: inputs that trigger it, e.g. a=6, b=11.
	in := &usersite.Inputs{Named: map[string]int64{"a": 6, "b": 11}}
	st, err := usersite.RunOnce(prog, in, usersite.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != symex.StateCrashed {
		t.Fatalf("user site run did not crash: %v", st.Summary())
	}
	rep, err := report.FromState(st)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Synthesize(context.Background(), prog, rep, Options{Strategy: StrategyESD, Budget: 30 * time.Second, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatalf("crash not synthesized (steps=%d)", res.Steps)
	}
	sol := solver.New()
	ex, err := trace.FromState(res.Found, sol)
	if err != nil {
		t.Fatal(err)
	}
	a := ex.Input("a", 0)
	b := ex.Input("b", 0)
	if a*3-b != 7 || b <= 10 {
		t.Fatalf("synthesized inputs a=%d b=%d do not satisfy the crash conditions", a, b)
	}
	// Play it back.
	p, err := replay.NewPlayer(prog, ex, replay.Strict)
	if err != nil {
		t.Fatal(err)
	}
	final, err := p.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != symex.StateCrashed || !rep.Matches(final) {
		t.Fatalf("playback did not reproduce the crash: %v", final.Summary())
	}
}

// TestInfiniteDistanceGate covers the second pruning gate. When a == 3
// the program calls spin, which never returns, on its way to the crash
// site. Block-level reachability (the critical-edge gate) still sees a
// path from that call to the crash, but the proximity calculator proves
// the crash at Infinite distance, so the score prunes the state. The
// a != 7 state that returns without crashing is the critical-edge
// gate's one prune. The spin call sits on the else side because a
// branch's else side is the fork, gated as it is admitted: both prunes
// happen inside the first quantum, so at n=2 no other worker can reach
// the crash first and cancel the run before a gate fires.
func TestInfiniteDistanceGate(t *testing.T) {
	src := `
int spin(int n) { return spin(n + 1); }
int main() {
	int a = input("a");
	int *p = 0;
	if (a != 3) {
	} else {
		spin(a);
	}
	if (a == 7) {
		return *p;   // crash site
	}
	return 0;
}`
	prog := lang.MustCompile("spin.c", src)
	in := &usersite.Inputs{Named: map[string]int64{"a": 7}}
	st, err := usersite.RunOnce(prog, in, usersite.Options{}, 0)
	if err != nil || st.Status != symex.StateCrashed {
		t.Fatalf("setup: %v %v", err, st.Summary())
	}
	rep, err := report.FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		res, err := Synthesize(context.Background(), prog, rep, Options{
			Strategy:    StrategyESD,
			Budget:      20 * time.Second,
			Seed:        1,
			Parallelism: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found == nil {
			t.Fatalf("n=%d: crash not synthesized (steps=%d)", n, res.Steps)
		}
		if res.PrunedCritical != 1 || res.PrunedInfinite != 1 {
			t.Errorf("n=%d: pruned %d by the critical-edge gate and %d by the infinite-distance gate, want 1 and 1",
				n, res.PrunedCritical, res.PrunedInfinite)
		}
	}
}

func TestDFSFindsTrivialCrash(t *testing.T) {
	src := `
int main() {
	int x = input("x");
	int *p = 0;
	if (x == 5) return *p;
	return 0;
}`
	prog := lang.MustCompile("triv.c", src)
	in := &usersite.Inputs{Named: map[string]int64{"x": 5}}
	st, err := usersite.RunOnce(prog, in, usersite.Options{}, 0)
	if err != nil || st.Status != symex.StateCrashed {
		t.Fatalf("setup failed: %v %v", err, st.Summary())
	}
	rep, _ := report.FromState(st)
	for _, strat := range []Strategy{StrategyDFS, StrategyRandomPath, StrategyESD} {
		res, err := Synthesize(context.Background(), prog, rep, Options{Strategy: strat, Budget: 20 * time.Second, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found == nil {
			t.Errorf("%v did not find the trivial crash", strat)
		}
	}
}

func TestOtherBugRecorded(t *testing.T) {
	// Program with two distinct crashes; report names one, the other is
	// discovered and recorded as a different bug.
	src := `
int main() {
	int x = input("x");
	int *p = 0;
	if (x == 1) return *p;    // bug A
	if (x == 2) return 5 / (x - 2);  // bug B
	return 0;
}`
	prog := lang.MustCompile("two.c", src)
	in := &usersite.Inputs{Named: map[string]int64{"x": 2}}
	st, err := usersite.RunOnce(prog, in, usersite.Options{}, 0)
	if err != nil || st.Status != symex.StateCrashed {
		t.Fatalf("setup: %v %v", err, st.Summary())
	}
	rep, _ := report.FromState(st) // report names bug B (div by zero)

	res, err := Synthesize(context.Background(), prog, rep, Options{Strategy: StrategyESD, Budget: 20 * time.Second, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatal("bug B not synthesized")
	}
	if res.Found.Crash == nil || res.Found.Crash.Kind != symex.CrashDivZero {
		t.Fatalf("wrong bug found: %v", res.Found.Crash)
	}
}

func TestStressDoesNotReproduceListing1(t *testing.T) {
	// §7.2's first baseline: brute-force stress testing with random inputs
	// never triggers the deadlock within a realistic budget when the
	// inputs are not the triggering ones.
	prog := lang.MustCompile("listing1.c", listing1)
	fails := 0
	for seed := int64(0); seed < 200; seed++ {
		in := &usersite.Inputs{
			Stdin: []int64{seed % 256},
			Env:   map[string]string{"mode": string(rune('A' + seed%26))},
		}
		st, err := usersite.RunOnce(prog, in, usersite.Options{PreemptPercent: 40}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if report.IsFailure(st) {
			fails++
		}
	}
	if fails != 0 {
		t.Fatalf("stress testing with wrong inputs reproduced the bug %d times — listing1 gate broken", fails)
	}
}
