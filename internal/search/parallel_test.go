package search

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"esd/internal/apps"
	"esd/internal/expr"
	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/replay"
	"esd/internal/report"
	"esd/internal/solver"
	"esd/internal/symex"
	"esd/internal/telemetry"
	"esd/internal/trace"
)

// TestStateKeyIgnoresSnapshotAddresses: two decodes of one checkpoint
// pool give the same decision histories in different memory, so every
// root must get the same stateKey from both. A key that hashed snapshot
// addresses would differ here, and would let a new snapshot at a
// collected one's address pass for it.
func TestStateKeyIgnoresSnapshotAddresses(t *testing.T) {
	data, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := apps.Get("listing1").Program()
	if err != nil {
		t.Fatal(err)
	}
	decode := func() []*symex.State {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		roots, err := ck.Pool.Decode(prog)
		if err != nil {
			t.Fatal(err)
		}
		return roots
	}
	a, b := decode(), decode()
	if len(a) != len(b) {
		t.Fatalf("decodes gave %d and %d roots", len(a), len(b))
	}
	withSnaps := 0
	for i := range a {
		if len(a[i].Snapshots) > 0 {
			withSnaps++
		}
		if ka, kb := stateKey(a[i]), stateKey(b[i]); ka != kb {
			t.Errorf("root %d (state %d, %d snapshots): keys %#x and %#x", i, a[i].ID, len(a[i].Snapshots), ka, kb)
		}
	}
	if withSnaps == 0 {
		t.Fatal("no root of the checkpoint holds a snapshot")
	}
}

// TestParallelFindsListing1 runs the frontier-parallel search on the
// paper's running example and checks the winning state is the real
// deadlock: strict playback of its schedule must reproduce it.
func TestParallelFindsListing1(t *testing.T) {
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)

	res, err := Synthesize(context.Background(), NewProgram(prog), rep, Options{
		Strategy:    StrategyESD,
		Budget:      60 * time.Second,
		Seed:        1,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatalf("parallel search did not synthesize the deadlock (timedOut=%v, steps=%d)",
			res.TimedOut, res.Steps)
	}
	if res.Workers != 4 {
		t.Errorf("Workers = %d, want 4", res.Workers)
	}
	if len(res.WorkerWall) != 4 {
		t.Errorf("WorkerWall rows = %d, want 4", len(res.WorkerWall))
	}
	won := 0
	for _, ww := range res.WorkerWall {
		if ww.Found {
			won++
		}
	}
	if won != 1 {
		t.Errorf("winning workers = %d, want exactly 1", won)
	}

	ex, err := trace.FromState(res.Found, solver.New())
	if err != nil {
		t.Fatal(err)
	}
	p, err := replay.NewPlayer(prog, ex, replay.Strict)
	if err != nil {
		t.Fatal(err)
	}
	final, err := p.Run(1_000_000)
	if err != nil {
		t.Fatalf("strict playback of parallel winner diverged: %v", err)
	}
	if final.Status != symex.StateDeadlocked {
		t.Fatalf("strict playback: %v, want deadlock", final.Status)
	}
	if !rep.Matches(final) {
		t.Fatal("strict playback reached a different deadlock than the report")
	}
}

// TestParallelNormalizesToSequential checks n<=1 runs the sequential
// search (the bit-identity guarantee is "same code", not "equivalent
// code"; the byte-level golden lives in the root package tests).
func TestParallelNormalizesToSequential(t *testing.T) {
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)
	res, err := Synthesize(context.Background(), NewProgram(prog), rep, Options{
		Strategy:    StrategyESD,
		Budget:      60 * time.Second,
		Seed:        1,
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatal("n=1 search did not find the deadlock")
	}
	if res.Workers != 1 {
		t.Errorf("Workers = %d, want 1 (sequential path)", res.Workers)
	}
	if res.DedupDrops != 0 || len(res.WorkerWall) != 0 {
		t.Errorf("sequential run leaked parallel bookkeeping: dedup=%d workers=%d",
			res.DedupDrops, len(res.WorkerWall))
	}
}

// TestParallelStepCapOutcomeMatchesSequential is the outcome-mapping
// golden: a MaxSteps-exhausted run must classify identically on the
// sequential and frontier-parallel paths — TimedOut (the step cap is a
// budget, not space exhaustion), not Cancelled, Outcome() "timeout".
// The parallel path used to be able to diverge here because its budget
// check folded differently into the terminal flags than the sequential
// loop's. Workers check the cap only between quanta, so the target must
// be one that four overlapping 32-step quanta cannot reach either:
// listing1's deadlock sometimes was, pipeline's is not.
func TestParallelStepCapOutcomeMatchesSequential(t *testing.T) {
	a := apps.Get("pipeline")
	prog, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Coredump()
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 4} {
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, Options{
			Strategy:    StrategyESD,
			Budget:      60 * time.Second,
			Seed:        1,
			MaxSteps:    50, // exhausted long before the deadlock is reachable
			Parallelism: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != nil {
			t.Fatalf("n=%d: found the bug within 50 steps; the step cap did not bind", n)
		}
		if !res.TimedOut || res.Cancelled || res.Outcome() != "timeout" {
			t.Errorf("n=%d: step-cap exhaustion → TimedOut=%v Cancelled=%v Outcome=%q, want timeout",
				n, res.TimedOut, res.Cancelled, res.Outcome())
		}
	}
}

// TestWarmSolverDeterminism is the determinism contract for warm solver
// facts: a sequential run on a solver whose private cache an identical
// prior run filled must stay byte-identical to the cold run in
// everything deterministic: the flight trace and every replay-stable
// Result counter. Only wall time and hit counts (which never enter the
// deterministic surface) may differ.
func TestWarmSolverDeterminism(t *testing.T) {
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)

	sol := solver.New()
	run := func() (*Result, []telemetry.Event) {
		rec := telemetry.NewRecorder(0)
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, Options{
			Strategy: StrategyESD,
			Budget:   60 * time.Second,
			Seed:     1,
			Solvers:  []*solver.Solver{sol},
			Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Events()
	}

	cold, coldEv := run()
	if cold.Found == nil {
		t.Fatal("cold run found nothing")
	}
	warm, warmEv := run()
	if warm.Found == nil {
		t.Fatal("warm run found nothing")
	}
	if warm.SolverQueries == 0 || warm.SolverHits < warm.SolverQueries {
		t.Errorf("warm run answered %d of its %d queries from the cache; the warmth test is vacuous",
			warm.SolverHits, warm.SolverQueries)
	}
	type det struct {
		Steps, States, Branch, Sched int64
		Queries                      int
		Pruned, Aging, Sheds         int64
		MaxDepth                     int64
	}
	d := func(r *Result) det {
		return det{r.Steps, r.StatesCreated, r.BranchForks, r.SchedForks,
			r.SolverQueries, r.Pruned, r.AgingPicks, r.Sheds, r.MaxDepth}
	}
	if d(cold) != d(warm) {
		t.Errorf("warm solver changed deterministic counters:\ncold %+v\nwarm %+v", d(cold), d(warm))
	}
	if !reflect.DeepEqual(coldEv, warmEv) {
		t.Errorf("warm solver changed the flight trace (%d vs %d events)", len(coldEv), len(warmEv))
	}
}

// TestParallelUnderReclaim races a frontier-parallel search against
// back-to-back forced collections: terms the workers drop are collected
// and re-interned mid-run while other workers hold theirs, so shared
// terms, the dedup set (keyed by structural keys) and the solver caches
// all see collections. The search must still reproduce the bug. It is repeated
// until a collection completes while a search runs. Run under -race in
// CI, this is the cross-worker stress test for the parallel path.
func TestParallelUnderReclaim(t *testing.T) {
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)

	stop := make(chan struct{})
	defer close(stop)
	var collections atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			expr.TryReclaim()
			collections.Add(1)
		}
	}()

	for run := 0; ; run++ {
		if run == 50 {
			t.Fatal("no collection completed during any of 50 searches")
		}
		before := collections.Load()
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, Options{
			Strategy:    StrategyESD,
			Budget:      60 * time.Second,
			Seed:        3,
			Parallelism: 4,
		})
		if err != nil {
			t.Fatalf("parallel search under forced collections failed: %v", err)
		}
		if res.Found == nil {
			t.Fatalf("parallel search under forced collections found nothing (timedOut=%v)", res.TimedOut)
		}
		if collections.Load() > before {
			return
		}
	}
}

// TestParallelExhaustsLikeSequential drives frontier-parallel searches to
// the end where the frontier is empty and no worker holds a state: the
// exhaustion verdicts behind patch validation (§5.2) and false-positive
// triage (§8). An exhaustive search that sheds nothing explores one state
// space whatever the interleaving, so every run must read "exhausted"
// with the same work.
func TestParallelExhaustsLikeSequential(t *testing.T) {
	type work struct {
		steps, states, drops int64
		terminals            string
	}
	run := func(t *testing.T, prog *mir.Program, rep *report.Report, n int) work {
		t.Helper()
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, Options{
			Strategy:    StrategyESD,
			Budget:      time.Minute,
			Seed:        1,
			Parallelism: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome() != "exhausted" || res.Sheds != 0 {
			t.Fatalf("n=%d: outcome %q with %d sheds, want exhausted with none", n, res.Outcome(), res.Sheds)
		}
		return work{res.Steps, res.StatesCreated, res.DedupDrops, fmt.Sprint(res.Terminals)}
	}

	// Eight input-dependent branches make 256 paths; the null store sits
	// under a condition no input satisfies, so each path runs to its exit.
	t.Run("crash", func(t *testing.T) {
		const src = `
int main() {
	int i = 0;
	int n = 0;
	while (i < 8) {
		if (getchar() > 100) {
			n = n + 1;
		} else {
			n = n - 1;
		}
		i = i + 1;
	}
	int c = getchar();
	if (c == 5 && c == 6) {
		int *p = 0;
		*p = n;
	}
	return n;
}`
		prog := lang.MustCompile("exhaust.c", src)
		line := strings.Count(src[:strings.Index(src, "*p = n;")], "\n") + 1
		var store []mir.Loc
		for _, blk := range prog.Funcs["main"].Blocks {
			for i, in := range blk.Instrs {
				if in.Op == mir.Store && in.Pos.Line == line {
					store = append(store, mir.Loc{Fn: "main", Block: blk.ID, Index: i})
				}
			}
		}
		if len(store) != 1 {
			t.Fatalf("line %d has %d stores, want the one null store", line, len(store))
		}
		rep := report.SuspectedCrash("exhaust.c", store[0], symex.CrashSegFault)
		seq := run(t, prog, rep, 1)
		if want := (work{seq.steps, 256, 0, fmt.Sprint(map[symex.StateStatus]int64{symex.StateExited: 256})}); seq != want {
			t.Fatalf("sequential search: %+v, want %+v", seq, want)
		}
		for _, n := range []int{2, 4} {
			if got := run(t, prog, rep, n); got != seq {
				t.Errorf("n=%d: %+v, sequential %+v", n, got, seq)
			}
		}
	})

	// The sequential search does not exhaust the triage false positive
	// within a test budget: it re-runs the duplicate decision histories
	// the parallel dedup set drops.
	t.Run("triage", func(t *testing.T) {
		prog, _, fp := triageReports()
		first := run(t, prog, fp, 2)
		for _, n := range []int{2, 4, 4} {
			if got := run(t, prog, fp, n); got != first {
				t.Errorf("n=%d: %+v, first n=2 run %+v", n, got, first)
			}
		}
	})
}
