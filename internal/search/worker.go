package search

import (
	"context"
	"time"

	"esd/internal/race"
	"esd/internal/sched"
	"esd/internal/solver"
	"esd/internal/symex"
)

// worker is one searcher over the shared plan with its own symbolic VM,
// solver, rng stream, scheduling-policy instance and race detector. The
// sequential search runs one worker; a frontier-parallel search runs n,
// with insertions routed into the run's one shared frontier. Both set
// workers up with newWorker and build their Result with fold.
type worker struct {
	id  int
	s   *searcher
	det *race.Detector
	// res absorbs the worker's quantum-level counters (terminals, prunes,
	// step errors, other bugs) until fold.
	res *Result
	// base holds the solver's counters at setup, so a warm solver reports
	// only this run's share. The query baseline is searcher.solBase,
	// which progress events read too.
	base solverBase

	// Frontier-parallel attribution (zero in sequential runs).
	picks  int64
	busyNS int64
	found  bool
}

// solverBase is a solver's cumulative cache and wall counters.
type solverBase struct {
	hits, persist, rejects int
	wallNS                 int64
}

// newWorker sets up worker i of n. Its solver is opts.Solvers[i] if the
// caller passed one, with whatever persistent tier the caller attached,
// else a fresh one. Workers of a frontier-parallel run (n > 1) get
// disjoint state-ID ranges — a state one worker forked may run on
// another's engine — and their own rng streams.
func newWorker(ctx context.Context, pl *plan, opts Options, i, n int, start time.Time) *worker {
	w := &worker{id: i, res: &Result{Terminals: map[symex.StateStatus]int64{}}}
	var sol *solver.Solver
	if i < len(opts.Solvers) {
		sol = opts.Solvers[i]
	} else {
		sol = solver.New()
	}
	w.base = solverBase{
		hits:    sol.CacheHits,
		persist: sol.PersistentHits,
		rejects: sol.VerifyRejects,
		wallNS:  sol.WallNanos,
	}
	eng, det := pl.newVM(ctx, opts, sol)
	if n > 1 {
		eng.SetIDBase(i << 40)
		opts.Seed += int64(i) * parallelSeedStride
	}
	w.det = det
	w.s = newSearcher(pl, ctx, opts, eng, sol, start)
	return w
}

// fold adds the worker's VM, solver, policy, race-detector and
// quantum-level counters to res. Call it once the worker has stopped.
func (w *worker) fold(res *Result) {
	s, est, sol := w.s, w.s.eng.Stats, w.s.sol
	res.Steps += est.Steps
	res.StatesCreated += est.States
	res.BranchForks += est.BranchForks
	res.SchedForks += est.SchedForks
	res.Concretizations += est.Concretizations
	res.SolverQueries += sol.Queries - s.solBase
	res.SolverHits += sol.CacheHits - w.base.hits
	res.SolverPersistentHits += sol.PersistentHits - w.base.persist
	res.SolverVerifyRejects += sol.VerifyRejects - w.base.rejects
	res.SolverWallNanos += sol.WallNanos - w.base.wallNS
	res.AgingPicks += s.agingPicks
	res.Sheds += s.sheds
	res.StepErrors += w.res.StepErrors
	res.PrunedCritical += w.res.PrunedCritical
	res.PrunedInfinite += w.res.PrunedInfinite
	res.Pruned = res.PrunedCritical + res.PrunedInfinite
	if s.maxDepth > res.MaxDepth {
		res.MaxDepth = s.maxDepth
	}
	for k, v := range w.res.Terminals {
		res.Terminals[k] += v
	}
	for _, b := range w.res.OtherBugs {
		if len(res.OtherBugs) < 64 {
			res.OtherBugs = append(res.OtherBugs, b)
		}
	}
	if w.det != nil {
		res.RaceFindings = append(res.RaceFindings, w.det.Findings...)
	}
	if dp, ok := s.eng.Policy.(*sched.DeadlockPolicy); ok {
		res.SnapshotsTaken += dp.SnapshotsTaken
		res.SnapshotsActivated += dp.SnapshotsActivated
		res.EagerForks += dp.EagerForks
	}
}
