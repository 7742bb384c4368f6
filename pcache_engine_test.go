package esd_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"esd"
)

// synthCached runs one listing1 synthesis on an engine with (or without)
// a persistent cache attached and returns the result and flight report.
func synthCached(t *testing.T, eng *esd.Engine) (*esd.Result, *esd.FlightReport) {
	t.Helper()
	prog, rep := appProgReport(t, "listing1")
	res, err := eng.Synthesize(context.Background(), prog, rep,
		esd.WithBudget(time.Minute), esd.WithSeed(1), esd.WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("listing1 synthesis did not reproduce the bug")
	}
	return res, res.Report()
}

// TestPersistentCacheWarmDeterminism is the warm-cache determinism
// golden: a cold run and a persistent-warm run (fresh engine, same cache
// directory, simulating a process restart) must produce byte-identical
// synthesized executions and DeterministicJSON — the warm run may only
// be faster, never different. The warm run must also actually be warm:
// persistent hits observed, publishes on disk.
func TestPersistentCacheWarmDeterminism(t *testing.T) {
	dir := t.TempDir()

	cold := esd.New(esd.WithPersistentCache(dir))
	if err := cold.PersistentCacheError(); err != nil {
		t.Fatal(err)
	}
	resCold, frCold := synthCached(t, cold)
	if resCold.Stats.SolverPersistentHits != 0 {
		t.Errorf("cold run reported %d persistent hits against an empty store", resCold.Stats.SolverPersistentHits)
	}
	st := cold.Stats()
	if st.PersistentCache == nil || st.PersistentCache.Publishes == 0 {
		t.Fatalf("cold run published nothing to the persistent store: %+v", st.PersistentCache)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := esd.New(esd.WithPersistentCache(dir))
	if err := warm.PersistentCacheError(); err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	resWarm, frWarm := synthCached(t, warm)
	if resWarm.Stats.SolverPersistentHits == 0 {
		t.Error("warm run took no persistent hits")
	}
	if resWarm.Stats.SolverVerifyRejects != 0 {
		t.Errorf("warm run rejected %d of its own store's models on re-verification", resWarm.Stats.SolverVerifyRejects)
	}

	exCold, err := resCold.Execution.JSON()
	if err != nil {
		t.Fatal(err)
	}
	exWarm, err := resWarm.Execution.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exCold, exWarm) {
		t.Errorf("synthesized executions differ cold vs persistent-warm:\n--- cold ---\n%s\n--- warm ---\n%s", exCold, exWarm)
	}
	dCold, err := frCold.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	dWarm, err := frWarm.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dCold, dWarm) {
		t.Errorf("DeterministicJSON differs cold vs persistent-warm:\n--- cold ---\n%s\n--- warm ---\n%s", dCold, dWarm)
	}
	// The warmth must be visible where it belongs: the stripped Wall
	// section of the live report.
	if frWarm.Wall == nil || frWarm.Wall.SolverPersistentHits == 0 {
		t.Error("warm run's Wall section records no persistent hits")
	}
}

// TestParallelRunTakesPersistentHits: the engine attaches the persistent
// tier to every solver it hands a search, so on the store a cold
// sequential run filled, an n=2 synthesis on a fresh engine takes
// persistent hits, reproduces the bug, and strict-replays to it.
func TestParallelRunTakesPersistentHits(t *testing.T) {
	dir := t.TempDir()
	cold := esd.New(esd.WithPersistentCache(dir))
	if err := cold.PersistentCacheError(); err != nil {
		t.Fatal(err)
	}
	synthCached(t, cold)
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := esd.New(esd.WithPersistentCache(dir))
	if err := warm.PersistentCacheError(); err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	prog, rep := appProgReport(t, "listing1")
	res, err := warm.Synthesize(context.Background(), prog, rep,
		esd.WithBudget(time.Minute), esd.WithSeed(1), esd.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Stats.Workers != 2 {
		t.Fatalf("n=2 run: found=%v workers=%d", res.Found, res.Stats.Workers)
	}
	if res.Stats.SolverPersistentHits == 0 {
		t.Error("n=2 run took no persistent hits from the store a cold run filled")
	}
	if res.Stats.SolverVerifyRejects != 0 {
		t.Errorf("n=2 run rejected %d stored models on re-verification", res.Stats.SolverVerifyRejects)
	}
	p, err := esd.NewPlayer(prog, res.Execution, esd.Strict)
	if err != nil {
		t.Fatal(err)
	}
	final, err := p.Run(1_000_000)
	if err != nil {
		t.Fatalf("strict playback: %v", err)
	}
	if !rep.R.Matches(final) {
		t.Fatalf("strict playback did not reproduce the bug: %s", final.Summary())
	}
}

// TestPersistentCacheOpenFailureDegrades pins the failure mode: an
// unopenable cache directory must not break synthesis, only surface
// through PersistentCacheError and the stats payload.
func TestPersistentCacheOpenFailureDegrades(t *testing.T) {
	base := t.TempDir()
	blocker := filepath.Join(base, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := esd.New(esd.WithPersistentCache(filepath.Join(blocker, "cache")))
	if eng.PersistentCacheError() == nil {
		t.Fatal("PersistentCacheError() = nil for an unopenable directory")
	}
	if st := eng.Stats(); st.PersistentCacheError == "" || st.PersistentCache != nil {
		t.Errorf("stats do not reflect the degraded store: %+v", st)
	}
	res, _ := synthCached(t, eng)
	if res.Stats.SolverPersistentHits != 0 {
		t.Error("degraded engine reported persistent hits")
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close on a degraded engine: %v", err)
	}
}

// persistSolverSlack is the warm-replay gate's tolerance on solver wall:
// warm solver time must stay under cold × slack + 100ms. Persistent hits
// replace solves with a lookup plus one model evaluation, so warm solver
// wall should drop outright; the slack only absorbs timer noise.
const persistSolverSlack = 1.10

// TestPersistentCacheWarmSolverWall checks that the persistent tier pays
// where it should: on ls4, the solver-bound app, a cold engine fills an
// empty cache directory, then a fresh engine and a fresh program on the
// same directory (as across a process restart, so no warm solver carries
// over) must take persistent hits, reject none of its own store's models,
// synthesize the byte-identical execution, and spend no more solver wall
// than the cold run. Solver wall is wall-clock time, so like the parallel gate it takes
// up to gateAttempts cold/warm pairs, each on a fresh directory.
func TestPersistentCacheWarmSolverWall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second ls4 syntheses; skipped with -short")
	}
	if raceEnabled {
		t.Skip("wall-clock gate; meaningless under the race detector's slowdown")
	}
	run := func(dir, mode string) (*esd.Result, []byte) {
		t.Helper()
		prog, rep := appProgReport(t, "ls4")
		eng := esd.New(esd.WithPersistentCache(dir))
		if err := eng.PersistentCacheError(); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := eng.Synthesize(context.Background(), prog, rep,
			esd.WithBudget(5*time.Minute), esd.WithSeed(1))
		wall := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: closing store: %v", mode, err)
		}
		if !res.Found {
			t.Fatalf("%s: ls4 not synthesized (timed out %v)", mode, res.TimedOut)
		}
		exec, err := res.Execution.JSON()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("ls4 %s wall=%.2fs solver=%.2fs steps=%d persistent_hits=%d rejects=%d",
			mode, wall.Seconds(), time.Duration(res.Stats.SolverWallNanos).Seconds(),
			res.Stats.Steps, res.Stats.SolverPersistentHits, res.Stats.SolverVerifyRejects)
		return res, exec
	}
	var coldSolver, warmSolver, limit time.Duration
	for attempt := 1; attempt <= gateAttempts; attempt++ {
		dir := t.TempDir()
		cold, coldExec := run(dir, "cold")
		warm, warmExec := run(dir, "warm")
		if warm.Stats.SolverPersistentHits == 0 {
			t.Fatal("warm run took no persistent hits")
		}
		if n := warm.Stats.SolverVerifyRejects; n != 0 {
			t.Fatalf("warm run rejected %d of its own store's models", n)
		}
		if !bytes.Equal(coldExec, warmExec) {
			t.Fatal("synthesized executions differ cold vs warm")
		}
		coldSolver = time.Duration(cold.Stats.SolverWallNanos)
		warmSolver = time.Duration(warm.Stats.SolverWallNanos)
		limit = time.Duration(float64(coldSolver)*persistSolverSlack) + 100*time.Millisecond
		if warmSolver <= limit {
			return
		}
		t.Logf("attempt %d of %d: warm solver wall %.2fs exceeds cold %.2fs (limit %.2fs)",
			attempt, gateAttempts, warmSolver.Seconds(), coldSolver.Seconds(), limit.Seconds())
	}
	t.Errorf("warm solver wall exceeded cold × %.2f + 100ms in all %d attempts (last: %.2fs against %.2fs)",
		persistSolverSlack, gateAttempts, warmSolver.Seconds(), limit.Seconds())
}
