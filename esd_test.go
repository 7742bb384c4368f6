package esd_test

import (
	"context"
	"testing"
	"time"

	"esd"
)

const raceAssert = `
int balance;
int m;
int deposit(int amount) {
	int tmp = balance;     // read
	yield();
	balance = tmp + amount; // lost-update write
	return 0;
}
int main() {
	balance = 100;
	int t1 = thread_create(deposit, 50);
	int t2 = thread_create(deposit, 25);
	thread_join(t1);
	thread_join(t2);
	assert(balance == 175);
	return balance;
}`

// TestPublicAPIRaceWorkflow exercises the whole public surface on a
// race-triggered assertion failure: compile → user site → synthesis (race
// kind, with the race detector) → playback → dedup.
func TestPublicAPIRaceWorkflow(t *testing.T) {
	prog, err := esd.CompileMiniC("bank.c", raceAssert)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumInstrs() == 0 {
		t.Fatal("empty program")
	}
	if prog.Dump() == "" {
		t.Fatal("empty dump")
	}

	rep, err := esd.SimulateUserSite(prog, &esd.UserInputs{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := esd.ReportFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}

	res, err := esd.New().Synthesize(context.Background(), prog, rep2,
		esd.WithBudget(60*time.Second), esd.WithSeed(1), esd.WithRaceDetection())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("race-triggered assert not synthesized (states=%d steps=%d)",
			res.Stats.States, res.Stats.Steps)
	}

	exData, err := res.Execution.JSON()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := esd.ExecutionFromJSON(exData)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.SameBug(res.Execution) {
		t.Fatal("round-tripped execution should be the same bug")
	}

	// Strict (serial) playback must reproduce the race deterministically.
	// Happens-before playback only enforces synchronization order, which
	// cannot pin down a pure data race — the paper makes the same point
	// (§5.2: "serial execution is also more precise, if the program
	// happens to have race conditions"), so for HB we only require a
	// divergence-free run.
	p, err := esd.NewPlayer(prog, ex, esd.Strict)
	if err != nil {
		t.Fatal(err)
	}
	final, err := p.Run(1_000_000)
	if err != nil {
		t.Fatalf("strict playback: %v", err)
	}
	if !rep2.R.Matches(final) {
		t.Fatalf("strict playback did not reproduce the failure: %s", final.Summary())
	}
	hb, err := esd.NewPlayer(prog, ex, esd.HappensBefore)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Run(1_000_000); err != nil {
		t.Fatalf("hb playback diverged: %v", err)
	}
}

func TestSynthesizeReportsTimeout(t *testing.T) {
	// An unreproducible report: crash location guarded by a condition no
	// input satisfies.
	prog, err := esd.CompileMiniC("t.c", `
int main() {
	int x = input("x");
	if (x != x) {         // never true
		int *p = 0;
		return *p;
	}
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	// Fabricate a crash report at the dead location via a sibling program
	// where it IS reachable, then try to synthesize against the dead one.
	progLive, err := esd.CompileMiniC("t.c", `
int main() {
	int x = input("x");
	if (x == 1) {
		int *p = 0;
		return *p;
	}
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := esd.SimulateUserSite(progLive, &esd.UserInputs{Named: map[string]int64{"x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := esd.New().Synthesize(context.Background(), prog, rep,
		esd.WithBudget(5*time.Second), esd.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("synthesized an impossible bug")
	}
}

func TestCompileErrorSurfaces(t *testing.T) {
	if _, err := esd.CompileMiniC("bad.c", "int main( {"); err == nil {
		t.Fatal("compile error not surfaced")
	}
}
