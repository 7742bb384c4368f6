package search

import (
	"context"
	"slices"
	"testing"
	"time"

	"esd/internal/expr"
	"esd/internal/lang"
	"esd/internal/solver"
	"esd/internal/telemetry"
)

// nopPersist is a persistent tier that never hits.
type nopPersist struct{}

func (nopPersist) Lookup([]expr.StructKey) (solver.Result, map[string]int64, bool) {
	return solver.Unknown, nil, false
}
func (nopPersist) Publish([]expr.StructKey, solver.Result, map[string]int64) {}

// TestSolverAttachDetach checks the solver discipline of every search
// shape: worker i runs on the caller's Solvers[i] when there is one and on
// a fresh solver otherwise, and the search leaves each solver's
// persistent tier as the caller set it. The engine attaches the tier
// before a run and detaches it after; the search does neither.
func TestSolverAttachDetach(t *testing.T) {
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)

	// opts passes the given number of solvers, each with a persistent
	// tier; workers beyond them run on fresh ones.
	opts := func(passed int) Options {
		o := Options{Strategy: StrategyESD, Budget: time.Minute, Seed: 1}
		for range passed {
			sol := solver.New()
			sol.Persist = nopPersist{}
			o.Solvers = append(o.Solvers, sol)
		}
		return o
	}

	// An n-worker run passes n/2 solvers: the sequential run none.
	for _, n := range []int{1, 2, 4} {
		o := opts(n / 2)
		o.Parallelism = n
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found == nil {
			t.Fatalf("n=%d: listing1 not reproduced", n)
		}
		for i, s := range o.Solvers {
			if s.Persist != (nopPersist{}) {
				t.Errorf("n=%d: the run changed solver %d's persistent tier to %v", n, i, s.Persist)
			}
		}
	}

	// The fresh solvers never reach the caller, so check them where the
	// runs above make them: worker setup.
	pl, err := buildPlan(NewProgram(prog), rep, opts(0))
	if err != nil {
		t.Fatal(err)
	}
	o := opts(2)
	for i := range 4 {
		sol := newWorker(context.Background(), pl, o, i, 4, time.Now()).sol
		if i < len(o.Solvers) && sol != o.Solvers[i] {
			t.Errorf("worker %d does not run on the solver passed for it", i)
		}
		if i >= len(o.Solvers) && (slices.Contains(o.Solvers, sol) || sol.Persist != nil) {
			t.Errorf("worker %d does not run on a fresh solver", i)
		}
	}
}

// TestResumeChainTelemetry checks that a preempt/resume chain flushes the
// same totals into the process-wide registry as an uninterrupted run:
// each segment flushes only its own share of the cumulative counters.
func TestResumeChainTelemetry(t *testing.T) {
	rep, _ := listing1Report(t)
	counters := map[string]*telemetry.Counter{
		"steps":                     vmSteps,
		"states":                    vmStates,
		"forks/branch":              searchForks.With("branch"),
		"forks/sched":               searchForks.With("sched"),
		"forks/eager":               searchForks.With("eager"),
		"forks/snapshot":            searchForks.With("snapshot"),
		"forks/snapshot_activation": searchForks.With("snapshot_activation"),
		"pruned/critical_edge":      searchPruned.With(pruneCritical),
		"pruned/infinite_distance":  searchPruned.With(pruneInfinite),
		"aging_picks":               searchAgingPicks,
		"sheds":                     searchSheds,
		"syntheses/found":           syntheses.With("found"),
	}
	snapshot := func() map[string]int64 {
		m := make(map[string]int64, len(counters))
		for k, c := range counters {
			m[k] = c.Value()
		}
		return m
	}
	delta := func(before map[string]int64) map[string]int64 {
		m := snapshot()
		for k := range m {
			m[k] -= before[k]
		}
		return m
	}

	before := snapshot()
	prog := lang.MustCompile("listing1.c", listing1)
	if _, err := Synthesize(context.Background(), NewProgram(prog), rep, checkpointOptions(nil)); err != nil {
		t.Fatal(err)
	}
	want := delta(before)
	if want["syntheses/found"] != 1 || want["steps"] == 0 {
		t.Fatalf("uninterrupted run flushed %v", want)
	}

	before = snapshot()
	var resume *Checkpoint
	segments := 0
	for {
		segments++
		if segments > 10_000 {
			t.Fatal("chain did not converge")
		}
		prog := lang.MustCompile("listing1.c", listing1)
		opts := checkpointOptions(nil)
		opts.Resume = resume
		calls := 0
		opts.Preempt = func() bool {
			calls++
			return calls%2 == 0
		}
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomePreempted {
			break
		}
		if resume, err = DecodeCheckpoint(res.Checkpoint); err != nil {
			t.Fatal(err)
		}
	}
	if segments < 2 {
		t.Fatalf("chain finished in %d segment(s); preemption never engaged", segments)
	}
	got := delta(before)
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: chain of %d segments flushed %d, uninterrupted run %d", k, segments, got[k], w)
		}
	}
}
