package esd_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"esd"
	"esd/internal/apps"
	"esd/internal/dist"
)

// appProgReport adapts a bundled app to the public API types.
func appProgReport(t *testing.T, name string) (*esd.Program, *esd.BugReport) {
	t.Helper()
	a := apps.Get(name)
	if a == nil {
		t.Fatalf("unknown app %q", name)
	}
	m, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	return &esd.Program{MIR: m}, &esd.BugReport{R: r}
}

// TestEngineCancellationPrompt is the acceptance gate for prompt
// cancellation: cancelling mid-ls3 (a synthesis that needs seconds of
// solver-heavy search) must return well under a second later, flagged
// Cancelled — not TimedOut, which is reserved for budget exhaustion.
func TestEngineCancellationPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real ls3 synthesis; skipped with -short")
	}
	prog, rep := appProgReport(t, "ls3")
	eng := esd.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cancelAfter = 150 * time.Millisecond
	start := time.Now()
	time.AfterFunc(cancelAfter, cancel)
	res, err := eng.Synthesize(ctx, prog, rep, esd.WithBudget(5*time.Minute), esd.WithSeed(1))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("ls3 found before the cancellation point; raise cancelAfter")
	}
	if !res.Cancelled {
		t.Errorf("Cancelled = false, want true")
	}
	if res.TimedOut {
		t.Errorf("TimedOut = true, want false (explicit cancel, not a deadline)")
	}
	if limit := cancelAfter + time.Second; elapsed > limit {
		t.Errorf("cancellation took %v, want < %v", elapsed, limit)
	}
}

// TestEngineDeadlineReportsTimeout distinguishes the other context path:
// a ctx deadline tighter than the budget is budget exhaustion (TimedOut),
// not a caller withdrawal (Cancelled).
func TestEngineDeadlineReportsTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a deadline-bounded ls3 search; skipped with -short")
	}
	prog, rep := appProgReport(t, "ls3")
	eng := esd.New()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := eng.Synthesize(ctx, prog, rep, esd.WithBudget(5*time.Minute), esd.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Skip("ls3 found within the deadline on this machine; nothing to assert")
	}
	if !res.TimedOut || res.Cancelled {
		t.Errorf("TimedOut=%v Cancelled=%v, want TimedOut=true Cancelled=false",
			res.TimedOut, res.Cancelled)
	}
}

// TestEnginePreExpiredDeadline: a context whose deadline already passed
// must report TimedOut immediately without searching. The historical bug:
// time.Until on an expired deadline is negative, and a negative Budget
// reads as "no wall-clock limit" in the search, which then burned the
// full step cap before the context machinery caught it.
func TestEnginePreExpiredDeadline(t *testing.T) {
	prog, rep := appProgReport(t, "listing1")
	eng := esd.New()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	res, err := eng.Synthesize(ctx, prog, rep, esd.WithBudget(5*time.Minute), esd.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.Cancelled || res.Found {
		t.Errorf("TimedOut=%v Cancelled=%v Found=%v, want TimedOut only",
			res.TimedOut, res.Cancelled, res.Found)
	}
	if res.Stats.Steps != 0 {
		t.Errorf("search executed %d steps despite the expired deadline", res.Stats.Steps)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("expired-deadline synthesize took %v, want immediate return", elapsed)
	}
}

// TestEngineBatchSharesState is the acceptance gate for cross-call cache
// sharing: 8 reports against one program, synthesized one after another
// on one engine, must reuse the fingerprint-keyed distance tables (every
// search after the first is a cache hit) and all reproduce the bug.
func TestEngineBatchSharesState(t *testing.T) {
	prog, rep := appProgReport(t, "listing1")
	eng := esd.New()

	const reports = 8
	hits0, _ := dist.SharedCacheStats()
	for i := 0; i < reports; i++ {
		r, err := eng.Synthesize(context.Background(), prog, rep,
			esd.WithBudget(time.Minute), esd.WithSeed(1))
		if err != nil {
			t.Fatalf("report %d failed: %v", i, err)
		}
		if !r.Found {
			t.Errorf("report %d not reproduced", i)
		}
	}
	hits1, _ := dist.SharedCacheStats()
	// At most one of the 8 searches can miss (the one that builds the
	// tables); with the program already warm, all 8 hit.
	if gained := hits1 - hits0; gained < reports-1 {
		t.Errorf("distance-table cache hits across the calls = %d, want >= %d",
			gained, reports-1)
	}
	st := eng.Stats()
	if st.Synthesized < reports {
		t.Errorf("engine counted %d syntheses, want >= %d", st.Synthesized, reports)
	}
	if st.Interner.Terms <= 0 || st.Interner.Bytes <= 0 {
		t.Errorf("interner stats not populated: %+v", st.Interner)
	}
}

// TestEngineProgressStream asserts the streaming contract: an Analyze
// event first, Search snapshots with advancing counters, one Done at the
// end, and monotonically non-decreasing step counts.
func TestEngineProgressStream(t *testing.T) {
	prog, rep := appProgReport(t, "listing1")
	eng := esd.New()
	var mu sync.Mutex
	var phases []esd.Phase
	var lastSteps int64
	res, err := eng.Synthesize(context.Background(), prog, rep,
		esd.WithBudget(time.Minute), esd.WithSeed(1),
		esd.OnProgress(func(ev esd.ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			phases = append(phases, ev.Phase)
			if ev.Steps < lastSteps {
				t.Errorf("steps went backwards: %d -> %d", lastSteps, ev.Steps)
			}
			lastSteps = ev.Steps
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("listing1 not synthesized")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(phases) < 3 {
		t.Fatalf("got %d progress events, want >= 3 (analyze, search, solve/done)", len(phases))
	}
	if phases[0] != esd.PhaseAnalyze {
		t.Errorf("first phase = %v, want analyze", phases[0])
	}
	if phases[len(phases)-1] != esd.PhaseDone {
		t.Errorf("last phase = %v, want done", phases[len(phases)-1])
	}
	foundSolve := false
	for _, p := range phases {
		if p == esd.PhaseSolve {
			foundSolve = true
		}
	}
	if !foundSolve {
		t.Error("no solve phase event for a found bug")
	}
}

// TestEngineCompileCache: identical source compiles once; the second call
// returns the same *Program (the handle repeated syntheses share).
func TestEngineCompileCache(t *testing.T) {
	eng := esd.New()
	const src = `int main() { return 0; }`
	p1, err := eng.Compile("a.c", src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Compile("a.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Compile of identical source returned a new program")
	}
	if p1.ID() == "" || p1.ID() != p2.ID() {
		t.Errorf("program IDs differ: %q vs %q", p1.ID(), p2.ID())
	}
	st := eng.Stats()
	if st.ProgramsCompiled != 1 || st.CompileCacheHits != 1 {
		t.Errorf("compile stats = %+v, want 1 compiled / 1 hit", st)
	}
}
