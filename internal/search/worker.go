package search

import (
	"context"
	"math/rand"
	"time"

	"esd/internal/dist"
	"esd/internal/mir"
	"esd/internal/race"
	"esd/internal/sched"
	"esd/internal/solver"
	"esd/internal/symex"
)

// worker is one search over the shared plan with its own symbolic VM,
// solver, rng stream, scheduling-policy instance and race detector. The
// sequential search runs one worker over its own frontier; a
// frontier-parallel search runs n, whose insertions go to the run's one
// shared frontier. Both set workers up with newWorker and build their
// Result with fold.
type worker struct {
	*plan
	opts Options
	ctx  context.Context
	id   int
	eng  *symex.Engine
	sol  *solver.Solver
	det  *race.Detector
	rng  *rand.Rand
	// rngSrc is rng's underlying draw-counting source (checkpointing).
	rngSrc *countingSource

	// front owns the live states: the per-goal virtual priority queues
	// (heaps with lazy deletion, §3.4 / §6.2), the DFS/RandomPath pool,
	// and the aging FIFO. Nil for the workers of a frontier-parallel run,
	// whose insertions go to run's shared frontier instead.
	front *queueFrontier
	run   *parallelRun

	// Progress-stream bookkeeping: run start, last periodic emission,
	// best (lowest) final-goal fitness scored and deepest path explored.
	start        time.Time
	lastProgress time.Time
	bestFit      int64
	maxDepth     int64
	// base holds the solver's counters at setup, so a warm solver reports
	// only this run's share (progress events read the query baseline
	// too); a resume shifts it back by the checkpointed consumption.
	base solverBase

	// Per-run accumulators, folded into the Result after the run.
	// allPicks drives the deterministic frontier-sampling cadence across
	// all strategies.
	allPicks                       int
	agingPicks, sheds, stepErrors  int64
	prunedCritical, prunedInfinite int64
	terminals                      map[symex.StateStatus]int64
	otherBugs                      []string

	// Frontier-parallel attribution (zero in sequential runs).
	picks  int64
	busyNS int64
	found  bool

	// stack is the scoring scratch: stateDistance, schedDistance and
	// mayReachGoals read each live thread's call stack into it in turn
	// instead of copying one per thread per score.
	stack []mir.Loc
	// spareKeys is a key slice no state holds any more (the picked
	// state's, or a pruned state's) for the next scoreState to fill.
	spareKeys []esdKey
}

// solverBase is a solver's cumulative query, cache and wall counters.
type solverBase struct {
	queries, hits, persist, rejects int
	wallNS                          int64
}

// newWorker sets up worker i of n. Its solver is opts.Solvers[i] if the
// caller passed one, with whatever persistent tier the caller attached,
// else a fresh one. A sequential worker (n = 1) owns an empty frontier.
// Workers of a frontier-parallel run (n > 1) get disjoint state-ID
// ranges — a state one worker forked may run on another's engine — and
// their own rng streams.
func newWorker(ctx context.Context, pl *plan, opts Options, i, n int, start time.Time) *worker {
	var sol *solver.Solver
	if i < len(opts.Solvers) {
		sol = opts.Solvers[i]
	} else {
		sol = solver.New()
	}
	eng, det := pl.newVM(ctx, opts, sol)
	var front *queueFrontier
	if n > 1 {
		eng.SetIDBase(i << 40)
		opts.Seed += int64(i) * parallelSeedStride
	} else {
		front = newQueueFrontier(opts.Strategy, pl.schedGuided, len(pl.queueGoals))
	}
	// The seed source is wrapped in a draw counter so a checkpoint can
	// record the RNG position; the wrapper draws the identical sequence
	// (see countingSource).
	src := &countingSource{src: rand.NewSource(opts.Seed + 1)}
	return &worker{
		plan:    pl,
		opts:    opts,
		ctx:     ctx,
		id:      i,
		eng:     eng,
		sol:     sol,
		det:     det,
		front:   front,
		rng:     rand.New(src),
		rngSrc:  src,
		start:   start,
		bestFit: dist.Infinite,
		base: solverBase{
			queries: sol.Queries,
			hits:    sol.CacheHits,
			persist: sol.PersistentHits,
			rejects: sol.VerifyRejects,
			wallNS:  sol.WallNanos,
		},
		terminals: map[symex.StateStatus]int64{},
	}
}

// fold adds the worker's VM, solver, policy and per-run counters to res.
// Call it once the worker has stopped.
func (w *worker) fold(res *Result) {
	est, sol := w.eng.Stats, w.sol
	res.Steps += est.Steps
	res.StatesCreated += est.States
	res.BranchForks += est.BranchForks
	res.SchedForks += est.SchedForks
	res.Concretizations += est.Concretizations
	res.SolverQueries += sol.Queries - w.base.queries
	res.SolverHits += sol.CacheHits - w.base.hits
	res.SolverPersistentHits += sol.PersistentHits - w.base.persist
	res.SolverVerifyRejects += sol.VerifyRejects - w.base.rejects
	res.SolverWallNanos += sol.WallNanos - w.base.wallNS
	res.AgingPicks += w.agingPicks
	res.Sheds += w.sheds
	res.StepErrors += w.stepErrors
	res.PrunedCritical += w.prunedCritical
	res.PrunedInfinite += w.prunedInfinite
	res.Pruned = res.PrunedCritical + res.PrunedInfinite
	res.MaxDepth = max(res.MaxDepth, w.maxDepth)
	for k, v := range w.terminals {
		res.Terminals[k] += v
	}
	for _, b := range w.otherBugs {
		if len(res.OtherBugs) < 64 {
			res.OtherBugs = append(res.OtherBugs, b)
		}
	}
	if dp, ok := w.eng.Policy.(*sched.DeadlockPolicy); ok {
		res.SnapshotsTaken += dp.SnapshotsTaken
		res.SnapshotsActivated += dp.SnapshotsActivated
		res.EagerForks += dp.EagerForks
	}
}
