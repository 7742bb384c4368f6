package search

import (
	"context"
	"sync"
	"time"

	"esd/internal/dist"
	"esd/internal/symex"
	"esd/internal/telemetry"
)

// This file implements frontier-parallel search (Options.Parallelism > 1):
// n workers over the §3.4 priority frontier, one queueFrontier behind one
// mutex.
//
// Division of labor:
//
//   - The plan (goals, analyses, distance tables, queue layout) is built
//     once and shared read-only; the interned term store is concurrent, so
//     states forked by different workers share pointer-equal terms.
//   - Each worker is built by newWorker, like the sequential search's one
//     worker, with its own symbolic VM (with a disjoint state-ID range, so
//     the (fitness, ID) order stays total), solver, rng stream,
//     scheduling-policy instance and race detector, and runs the same
//     quantum/admit/keep/terminal. Only the loop differs (take/runWorker
//     instead of runLoop) and insertion goes to the run (worker.run): a
//     worker gates and scores its forks and survivors itself, outside the
//     lock, and place inserts them with their keys. The Result is folded
//     from the workers the same way too (worker.fold).
//   - parallelRun.mu guards the frontier, the dedup set and the run's
//     counters. A worker holds it to pick and to place; the quantum runs
//     unlocked. Picks go through queueFrontier.pick with the worker's rng,
//     so each worker chooses its own virtual queue, and the frontier's
//     pick count keeps the sequential one-in-four aging cadence.
//   - A dedup set drops states whose decision history (path condition +
//     schedule) was already admitted — the redundancy source is snapshot
//     activation, where sibling states carry the same K_S snapshots.
//   - The run ends when a worker reaches a goal state (it cancels the rest
//     through the run-scoped context), when the budget runs out (the same
//     way), or when the frontier is empty and no worker holds a state that
//     could refill it. Idle workers wait on one condition variable: each
//     insert signals it, exhaustion broadcasts it, and a cancelled run
//     context broadcasts it through context.AfterFunc.
//
// Determinism: a parallel run's outcome depends on the OS scheduler, so
// it makes no replay promise itself; the contract is that the *winning
// state's* execution file replays strictly, and that Parallelism <= 1
// never reaches this file (Synthesize runs the sequential loop), keeping
// the sequential path bit-identical to its history.

// parallelSeedStride separates worker rng streams; any odd constant works,
// a prime keeps accidental stream overlap improbable.
const parallelSeedStride = 7919

// runParallel runs the frontier-parallel search with opts.Parallelism
// workers. Called from Synthesize, which already normalized defaults,
// built the plan and emitted the analyze phase.
func runParallel(ctx context.Context, pl *plan, opts Options, start time.Time, emit func(Phase, int)) (*Result, error) {
	n := opts.Parallelism
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	r := &parallelRun{
		opts:   opts,
		ctx:    runCtx,
		cancel: cancel,
		start:  start,
		front:  newQueueFrontier(opts.Strategy, pl.schedGuided, len(pl.queueGoals)),
		// The run holds n × maxLiveStates live states before it sheds:
		// shedding is lossy, and a smaller aggregate cost big-frontier runs
		// like ls4 their bug. States are copy-on-write, so the memory
		// multiplier is far below n×.
		budget:  n * maxLiveStates,
		seen:    map[uint64]struct{}{},
		bestFit: dist.Infinite,
	}
	r.idle = sync.NewCond(&r.mu)
	// A goal, the budget or the caller cancels the run context; every idle
	// worker must wake to observe it.
	stop := context.AfterFunc(runCtx, func() {
		r.mu.Lock()
		r.idle.Broadcast()
		r.mu.Unlock()
	})
	defer stop()

	workers := make([]*worker, n)
	for i := range workers {
		workers[i] = newWorker(runCtx, pl, opts, i, n, start)
		workers[i].run = r
	}

	init, err := workers[0].eng.InitialState()
	if err != nil {
		return nil, err
	}
	workers[0].seed(init)
	emit(PhaseSearch, 1)

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runWorker(w)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// The driver goroutine owns OnProgress and the Recorder (neither is
	// safe for concurrent use), sampling the run's counters on a wall
	// cadence. A parallel trace is inherently nondeterministic, so there
	// is no pick-count cadence to preserve here — the n=1 path keeps it.
	ticker := time.NewTicker(progressInterval)
	defer ticker.Stop()
drive:
	for {
		select {
		case <-done:
			break drive
		case now := <-ticker.C:
			r.progress(now)
		}
	}

	// Every worker goroutine has exited, so reading their structs and the
	// run's fields is race-free.
	res := &Result{
		Found:                r.winner,
		IntermediateGoalSets: pl.nInter,
		Terminals:            map[symex.StateStatus]int64{},
		Workers:              n,
		DedupDrops:           r.dedupDrops,
		Sheds:                r.sheds,
	}
	for _, w := range workers {
		w.fold(res)
		res.WorkerWall = append(res.WorkerWall, telemetry.WorkerWall{
			Worker:   w.id,
			Steps:    w.eng.Stats.Steps,
			States:   w.eng.Stats.States,
			Picks:    w.picks,
			BusyNS:   w.busyNS,
			SolverNS: w.sol.WallNanos - w.base.wallNS,
			Found:    w.found,
		})
	}
	res.Duration = time.Since(start)
	if res.Found == nil {
		switch {
		case r.timedOut:
			// Our own budget cancel, not the caller's context.
			res.TimedOut = true
		case r.ctx.Err() != nil:
			res.TimedOut, res.Cancelled = classifyCtxErr(r.ctx.Err())
		}
		// Otherwise: genuinely exhausted.
	}
	return res, nil
}

// parallelRun is the shared state of one parallel search. mu guards
// every field after it.
type parallelRun struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time

	mu sync.Mutex
	// idle is where a worker waits while the frontier is empty and a peer
	// still holds a state.
	idle  *sync.Cond
	front *queueFrontier
	// budget is the live-state count past which the frontier sheds its
	// worse half (queueFrontier.shedWorst, as the sequential loop does).
	budget int
	// seen holds the stateKey of every admitted state, up to dedupCap.
	seen map[uint64]struct{}
	// busy counts the workers holding a state.
	busy int

	steps, states, maxDepth, bestFit int64
	sheds, dedupDrops                int64
	timedOut                         bool
	winner                           *symex.State
}

// place takes a state the producing worker admitted, with the keys it
// scored it with, drops it if an equal decision history was admitted
// before, and otherwise inserts it (shedding when the run is over its
// budget). The key is hashed before the lock is taken.
func (r *parallelRun) place(w *worker, st *symex.State, keys []esdKey) {
	key := stateKey(st)
	r.mu.Lock()
	defer r.mu.Unlock()
	// The worker already folded st into its own best fitness.
	r.bestFit = min(r.bestFit, w.bestFit)
	if len(r.seen) < dedupCap {
		if _, dup := r.seen[key]; dup {
			r.dedupDrops++
			return
		}
		r.seen[key] = struct{}{}
	}
	r.maxDepth = max(r.maxDepth, st.Steps)
	r.front.insert(st, keys)
	r.idle.Signal()
	if r.front.size() > r.budget {
		r.sheds += int64(r.front.shedWorst())
	}
}

// take pops the next state for w and counts w busy. It returns nil when
// the run is over: a goal found, the context done, the budget spent, or
// the search space exhausted — the frontier empty while no worker holds a
// state that could refill it. Exhaustion is checked before the budget, as
// the sequential loop's condition is, so both searches report the same
// outcome for the same search. A worker that finds the frontier empty
// while peers still run waits for an insert or the end of the run.
func (r *parallelRun) take(w *worker) *symex.State {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.ctx.Err() == nil {
		if r.front.size() == 0 && r.busy == 0 {
			r.idle.Broadcast() // peers must observe the exhaustion
			return nil
		}
		if r.opts.Budget > 0 && time.Since(r.start) > r.opts.Budget || r.steps > r.opts.MaxSteps {
			r.timedOut = true
			r.cancel()
			return nil
		}
		if st, aged := r.front.pick(w.rng); st != nil {
			w.spareKeys = r.front.spentKeys()
			if aged {
				w.agingPicks++
			}
			w.picks++
			r.busy++
			return st
		}
		r.idle.Wait()
	}
	return nil
}

// runWorker is one worker's life: take a state, run a quantum unlocked
// (its forks and survivor come back through place), fold the quantum's
// work into the run's counters, repeat.
func (r *parallelRun) runWorker(w *worker) {
	searchWorkers.Add(1)
	defer searchWorkers.Add(-1)
	for st := r.take(w); st != nil; st = r.take(w) {
		steps, states := w.eng.Stats.Steps, w.eng.Stats.States
		t0 := time.Now()
		found, err := w.quantum(st)
		w.busyNS += time.Since(t0).Nanoseconds()
		r.mu.Lock()
		r.busy--
		r.steps += w.eng.Stats.Steps - steps
		r.states += w.eng.Stats.States - states
		if found != nil && r.winner == nil {
			// The first goal state wins and cancels everyone else.
			r.winner, w.found = found, true
			r.cancel()
		}
		r.mu.Unlock()
		if err != nil || found != nil {
			// err is ErrInterrupted: the VM observed the cancelled run
			// context mid-quantum; runParallel classifies the outcome.
			return
		}
	}
}

// progress emits one progress/recorder sample from the run's counters,
// on runParallel's goroutine. Per-worker solver counters are deliberately
// absent: reading them here would race with the workers, and the final
// Result carries the exact totals.
func (r *parallelRun) progress(now time.Time) {
	r.mu.Lock()
	ev := ProgressEvent{
		Phase:    PhaseSearch,
		Time:     now,
		Elapsed:  now.Sub(r.start),
		Steps:    r.steps,
		States:   r.states,
		Live:     r.front.size(),
		Depth:    r.maxDepth,
		BestDist: r.bestFit,
	}
	r.mu.Unlock()
	searchFrontier.Observe(int64(ev.Live))
	if r.opts.OnProgress != nil {
		r.opts.OnProgress(ev)
	}
	r.opts.Recorder.Record(telemetry.Event{
		Kind:     telemetry.EventFrontier,
		Steps:    ev.Steps,
		States:   ev.States,
		Live:     ev.Live,
		Depth:    ev.Depth,
		BestDist: ev.BestDist,
	})
}

// --- cross-worker dedup -----------------------------------------------------

// stateKey fingerprints a state's decision history for cross-worker
// deduplication. Two states are interchangeable only when both their
// execution prefix AND their policy metadata coincide:
//
//   - the path condition (each conjunct's structural key, which a term
//     keeps across its collection and re-interning, so a duplicate is
//     dropped however long ago its twin's terms were collected) plus the
//     schedule, scheduled thread, and step count pin the execution
//     prefix — given those, the VM's evolution is deterministic;
//   - SchedDist, Preemptions, and EagerForks are policy marks that gate
//     future forking (two positionally identical states with different
//     eager-fork budgets explore different futures);
//   - the K_S snapshot map is rollback capability: each entry's mutex
//     key and snapshot state ID, folded order-independently (map
//     iteration order must not change the key). State IDs are unique
//     within a run, as workers draw them from disjoint SetIDBase ranges;
//     a snapshot's address is not, since a new snapshot can take a
//     collected one's.
//
// The common duplicate source is snapshot activation: sibling states
// carry the same snapshots and would regenerate each other's activation
// forks in every worker.
func stateKey(st *symex.State) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(len(st.Constraints)))
	for _, c := range st.Constraints {
		k := c.StructuralKey()
		mix(k.Hi)
		mix(k.Lo)
	}
	mix(uint64(st.Cur))
	mix(uint64(st.Steps))
	mix(uint64(len(st.Schedule)))
	for _, seg := range st.Schedule {
		mix(uint64(seg.Tid))
		mix(uint64(seg.Steps))
	}
	mix(uint64(st.SchedDist))
	mix(uint64(st.Preemptions))
	mix(uint64(st.EagerForks))
	var snaps uint64
	for k, snap := range st.Snapshots {
		// Per-entry FNV, folded by XOR: order-independent.
		eh := uint64(offset64)
		for _, v := range [3]uint64{uint64(k.Obj), uint64(k.Off), uint64(snap.ID)} {
			eh ^= v
			eh *= prime64
		}
		snaps ^= eh
	}
	mix(uint64(len(st.Snapshots)))
	mix(snaps)
	return h
}

// dedupCap bounds the dedup set; past it, admission checks are disabled
// (every state passes) rather than evicting — by then the run is deep
// enough that late exact duplicates are rare, and silent eviction would
// quietly reintroduce duplicated work early keys were supposed to kill.
const dedupCap = 1 << 20
