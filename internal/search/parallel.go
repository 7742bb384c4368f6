package search

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"esd/internal/dist"
	"esd/internal/symex"
	"esd/internal/telemetry"
)

// This file implements frontier-parallel search (Options.Parallelism > 1):
// the §3.4 priority frontier sharded across n workers with work stealing.
//
// Division of labor:
//
//   - The plan (goals, analyses, distance tables, queue layout) is built
//     once and shared read-only; the interned term store is already
//     concurrent (PR 2), so states forked by different workers share
//     pointer-equal terms.
//   - Each worker is built by newWorker, like the sequential search's one
//     worker: a full searcher with its own symex VM (with a disjoint
//     state-ID range, so the priority tie-break stays total), solver,
//     scheduling-policy instance, and race detector, reusing
//     quantum/admit/terminal/prunable verbatim. Only the loop differs
//     (take/runWorker instead of runLoop) and insertion is diverted
//     (searcher.route): forks are scored by the producing worker and
//     placed round-robin into the shared shards. The Result is folded
//     from the workers the same way too (worker.fold).
//   - A shared dedup set drops states whose decision history (path
//     condition + schedule) another worker already admitted — the
//     redundancy source is snapshot activation, where sibling states
//     carry the same K_S snapshots.
//   - The first worker to reach a goal state wins and cancels the rest
//     through the run-scoped context; budget exhaustion propagates the
//     same way.
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
		shards: make([]*frontierShard, n),
		dedup:  newDedupSet(),
	}
	r.idleCond = sync.NewCond(&r.idleMu)
	r.bestFit.Store(dist.Infinite)
	// The shed budget is global and work-conserving: the run holds the
	// same aggregate capacity as before (n × MaxStates — shedding is
	// lossy, and an aggregate below that in practice cost big-frontier
	// runs like ls4 their bug), but no single shard has a private cap.
	// A fixed per-shard threshold shed whenever round-robin placement
	// momentarily overloaded one shard, making sheds n× more frequent
	// than the sequential search's even with aggregate headroom to
	// spare; under the global budget, capacity rebalances toward loaded
	// shards and a shed happens only when the whole run is over budget.
	// States are copy-on-write, so the memory multiplier is far below n×.
	r.shedBudget = int64(n) * int64(opts.MaxStates)
	for i := range r.shards {
		r.shards[i] = &frontierShard{
			f: newQueueFrontier(opts.Strategy, pl.schedGuided, len(pl.queueGoals)),
		}
	}

	workers := make([]*worker, n)
	for i := range workers {
		w := newWorker(runCtx, pl, opts, i, n, start)
		w.s.route = func(st *symex.State) { r.place(w, st) }
		workers[i] = w
	}
	defer func() {
		for _, w := range workers {
			w.release()
		}
	}()

	init, err := workers[0].s.eng.InitialState()
	if err != nil {
		return nil, err
	}
	r.place(workers[0], init)
	emit(PhaseSearch, 1)

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go r.runWorker(w, &wg)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// The driver goroutine owns OnProgress and the Recorder (neither is
	// safe for concurrent use), sampling the shared atomics on a wall
	// cadence. A parallel trace is inherently nondeterministic, so there
	// is no pick-count cadence to preserve here — the n=1 path keeps it.
	ticker := time.NewTicker(opts.ProgressInterval)
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

	// Every worker goroutine has exited, so reading their structs is
	// race-free.
	res := &Result{
		Found:                r.winner,
		IntermediateGoalSets: pl.nInter,
		Terminals:            map[symex.StateStatus]int64{},
		Workers:              n,
		DedupDrops:           r.dedupDrops.Load(),
		Sheds:                r.sheds.Load(),
	}
	for _, w := range workers {
		w.fold(res)
		res.WorkerWall = append(res.WorkerWall, telemetry.WorkerWall{
			Worker:     w.id,
			Steps:      w.s.eng.Stats.Steps,
			States:     w.s.eng.Stats.States,
			Picks:      w.picks,
			BusyNS:     w.busyNS,
			SolverNS:   w.s.sol.WallNanos - w.base.wallNS,
			SharedHits: w.s.sol.SharedHits - w.base.shared,
			Found:      w.found,
		})
	}
	res.Duration = time.Since(start)
	if res.Found == nil {
		switch {
		case r.timedOut.Load():
			// Our own budget cancel, not the caller's context.
			res.TimedOut = true
		case r.ctx.Err() != nil:
			res.TimedOut, res.Cancelled = classifyCtxErr(r.ctx.Err())
		}
		// Otherwise: genuinely exhausted.
	}
	return res, nil
}

// frontierShard is one lock-protected slice of the shared frontier.
type frontierShard struct {
	mu sync.Mutex
	f  *queueFrontier
}

// parallelRun is the shared coordination state of one parallel search.
type parallelRun struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time

	shards []*frontierShard
	// shedBudget is the global live-state budget (n × MaxStates); shedMu
	// serializes the all-shard shed that runs when the budget overflows.
	shedBudget int64
	shedMu     sync.Mutex
	dedup      *dedupSet

	rr         atomic.Uint64 // round-robin insertion cursor
	live       atomic.Int64  // states currently sitting in shards
	busy       atomic.Int64  // workers currently holding a state
	steps      atomic.Int64  // executed instructions, all workers
	states     atomic.Int64  // states created, all workers
	bestFit    atomic.Int64
	maxDepth   atomic.Int64
	sheds      atomic.Int64
	dedupDrops atomic.Int64

	// Idle-worker wakeup. A worker that scans every shard empty sleeps on
	// idleCond instead of spinning; inserts is a monotone sequence number
	// bumped on every placement, and waiters lets signalers skip the lock
	// when nobody sleeps. The no-missed-wakeup argument is ordering:
	// a waiter captures inserts BEFORE its scan and re-checks it under
	// idleMu after incrementing waiters; a signaler bumps inserts before
	// reading waiters. Go atomics are sequentially consistent, so either
	// the signaler sees the waiter (and broadcasts) or the waiter sees
	// the new sequence number (and skips the wait).
	idleMu   sync.Mutex
	idleCond *sync.Cond
	inserts  atomic.Uint64
	waiters  atomic.Int64

	done     atomic.Bool
	timedOut atomic.Bool

	winnerMu sync.Mutex
	winner   *symex.State
	winnerW  int
}

// place scores a freshly produced state on the producing worker's
// searcher, drops it if another worker already admitted an equivalent
// decision history, and otherwise inserts it into the next shard
// round-robin (shedding that shard if it overflowed its share).
func (r *parallelRun) place(w *worker, st *symex.State) {
	var keys []esdKey
	if w.s.opts.Strategy == StrategyESD {
		keys = w.s.scoreState(st)
		// Propagate the worker's improving final-goal fitness to the
		// shared progress view.
		for {
			cur := r.bestFit.Load()
			if w.s.bestFit >= cur || r.bestFit.CompareAndSwap(cur, w.s.bestFit) {
				break
			}
		}
	}
	if r.dedup.seen(stateKey(st)) {
		r.dedupDrops.Add(1)
		return
	}
	for {
		cur := r.maxDepth.Load()
		if st.Steps <= cur || r.maxDepth.CompareAndSwap(cur, st.Steps) {
			break
		}
	}
	shard := r.shards[int(r.rr.Add(1))%len(r.shards)]
	shard.mu.Lock()
	shard.f.insert(st, keys)
	shard.mu.Unlock()
	live := r.live.Add(1)
	r.signalInsert()
	if live > r.shedBudget {
		r.shedOverBudget()
	}
}

// shedOverBudget runs the work-conserving shed: when the run's aggregate
// live count exceeds the global budget, every shard drops its worse half
// (the same keep-half policy the sequential search applies at MaxStates).
// shedMu serializes shedders and the re-check under it collapses the
// thundering herd of workers that observed the same overflow.
func (r *parallelRun) shedOverBudget() {
	r.shedMu.Lock()
	defer r.shedMu.Unlock()
	if r.live.Load() <= r.shedBudget {
		return
	}
	var shed int64
	for _, shard := range r.shards {
		shard.mu.Lock()
		shed += int64(shard.f.shedWorst())
		shard.mu.Unlock()
	}
	if shed > 0 {
		r.live.Add(-shed)
		r.sheds.Add(shed)
	}
}

// signalInsert wakes idle workers after a placement. The waiters check
// keeps the common case (everyone busy) lock-free; see the idleCond
// field comment for why the ordering cannot miss a wakeup.
func (r *parallelRun) signalInsert() {
	r.inserts.Add(1)
	if r.waiters.Load() == 0 {
		return
	}
	r.idleMu.Lock()
	r.idleCond.Broadcast()
	r.idleMu.Unlock()
}

// wakeAll unconditionally wakes every idle worker so it can re-observe a
// terminal condition (done, cancellation, exhaustion). Every worker-exit
// path runs it: a worker only exits when the run is ending, and a
// sleeping peer must not outlive the run.
func (r *parallelRun) wakeAll() {
	r.idleMu.Lock()
	r.idleCond.Broadcast()
	r.idleMu.Unlock()
}

// take pops the next state for w. It returns nil when the run should stop
// (goal found, budget exhausted, context done, hard error) or when the
// search space is globally exhausted — every shard empty while no worker
// holds a state that could refill them. On success the worker is counted
// busy (incremented before the pop, so a momentarily empty frontier with
// a state in flight never reads as exhaustion). A worker that finds every
// shard empty while peers are still running sleeps on idleCond until an
// insert or a terminal condition wakes it — no spinning.
func (r *parallelRun) take(w *worker) *symex.State {
	for {
		if r.done.Load() || r.ctx.Err() != nil {
			return nil
		}
		if r.budgetExceeded() {
			if r.live.Load() == 0 && r.busy.Load() == 0 {
				// Exhaustion and budget overrun coincide. The sequential
				// searcher checks the frontier before the budget (its loop
				// condition), so exhaustion wins there; give it the same
				// precedence here or the two paths report different
				// outcomes for the same search.
				return nil
			}
			r.timedOut.Store(true)
			r.done.Store(true)
			r.cancel()
			return nil
		}
		// Capture the insert sequence before scanning: any insert after
		// this point bumps it, so the wait below either sees the bump and
		// rescans or provably scanned a frontier that already contained
		// every insert it could have missed.
		seq := r.inserts.Load()
		r.busy.Add(1)
		if st, aged := r.pickBest(w); st != nil {
			if aged {
				w.s.agingPicks++
			}
			w.picks++
			r.live.Add(-1)
			return st
		}
		r.busy.Add(-1)
		if r.live.Load() == 0 && r.busy.Load() == 0 {
			r.wakeAll() // peers must re-observe the exhaustion
			return nil
		}
		r.idleMu.Lock()
		r.waiters.Add(1)
		for r.inserts.Load() == seq && !r.done.Load() && r.ctx.Err() == nil &&
			!(r.live.Load() == 0 && r.busy.Load() == 0) {
			r.idleCond.Wait()
		}
		r.waiters.Add(-1)
		r.idleMu.Unlock()
	}
}

// pickBest pops one state for w, preserving the sequential search order
// as closely as sharding allows. Own-shard-first picking (the original
// design) silently degraded n workers into n near-independent best-first
// searches over random 1/n slices of the frontier: each worker greedily
// drained its own shard's best while globally better states sat in a
// neighbor's, and on priority-sensitive searches (ls4's goal lineage) the
// aggregate step count *grew* with n — the parallel regression. Instead,
// ESD picks now choose a virtual queue with the worker's rng (the same
// queue-selection rule the sequential pickESD applies), peek every
// shard's best key in that queue, and pop from the shard holding the
// global minimum. Every live state is in every queue's heap, so one
// queue's shard heads cover the whole frontier. The peek-then-pop window
// is racy — a peer can take the peeked state first — but the re-pop takes
// that shard's next-best, so the order stays approximately global, and
// the retry loop rescans if the shard drained entirely.
//
// Each shard compacts its heaps under its lock before the peek. That may
// drop the stale entries of a state another worker is running, which only
// forgets older keys of that state: parallel order depends on timing
// anyway, and no state is lost (see queueFrontier.maybeCompact).
//
// The anti-starvation aging pick keeps its cadence per worker (the
// sequential frontier counts per frontier; with one frontier per run
// that was the same thing) and drains the first non-empty FIFO in ring
// order — oldest-of-one-shard rather than oldest-globally, which is
// enough for the guarantee the FIFO exists for: every state is
// eventually run.
func (r *parallelRun) pickBest(w *worker) (*symex.State, bool) {
	n := len(r.shards)
	if r.opts.Strategy != StrategyESD {
		// DFS/RandomPath have no cross-shard order to preserve: take from
		// the first non-empty shard in ring order.
		for i := 0; i < n; i++ {
			shard := r.shards[(w.id+i)%n]
			shard.mu.Lock()
			st, aged := shard.f.pick(w.s.rng)
			shard.mu.Unlock()
			if st != nil {
				return st, aged
			}
		}
		return nil, false
	}
	f0 := r.shards[0].f
	w.pickTick++
	if f0.schedGuided && w.pickTick%agingPeriod == 0 {
		for i := 0; i < n; i++ {
			shard := r.shards[(w.id+i)%n]
			shard.mu.Lock()
			st := shard.f.pickFIFO()
			shard.mu.Unlock()
			if st != nil {
				return st, true
			}
		}
		// Every FIFO empty (non-guided queues don't feed them): fall
		// through to a fitness pick.
	}
	q := w.s.rng.Intn(f0.numQueues)
	for {
		best := -1
		var bestKey esdKey
		for i := 0; i < n; i++ {
			idx := (w.id + i) % n
			shard := r.shards[idx]
			shard.mu.Lock()
			shard.f.maybeCompact()
			key, ok := shard.f.peekQueue(q)
			shard.mu.Unlock()
			if ok && (best < 0 || key.less(bestKey)) {
				best, bestKey = idx, key
			}
		}
		if best < 0 {
			return nil, false
		}
		shard := r.shards[best]
		shard.mu.Lock()
		st := shard.f.popQueue(q)
		shard.mu.Unlock()
		if st != nil {
			return st, false
		}
	}
}

func (r *parallelRun) budgetExceeded() bool {
	if r.opts.Budget > 0 && time.Since(r.start) > r.opts.Budget {
		return true
	}
	return r.steps.Load() > r.opts.MaxSteps
}

// runWorker is one worker's life: take a state, run a quantum (which
// routes forks and survivors back through place), sync the shared
// counters, repeat.
func (r *parallelRun) runWorker(w *worker, wg *sync.WaitGroup) {
	defer wg.Done()
	// A worker only exits when the run is ending (found, budget, cancel,
	// exhaustion); wake any sleeping peer so it re-observes the terminal
	// condition instead of waiting for an insert that will never come.
	defer r.wakeAll()
	searchWorkers.Add(1)
	defer searchWorkers.Add(-1)
	for {
		st := r.take(w)
		if st == nil {
			return
		}
		t0 := time.Now()
		found, err := w.s.quantum(st, w.res)
		w.busyNS += time.Since(t0).Nanoseconds()
		r.steps.Add(w.s.eng.Stats.Steps - w.lastSteps)
		w.lastSteps = w.s.eng.Stats.Steps
		r.states.Add(w.s.eng.Stats.States - w.lastStats)
		w.lastStats = w.s.eng.Stats.States
		r.busy.Add(-1)
		if err != nil {
			// ErrInterrupted: the VM observed the cancelled run context
			// mid-quantum; the driver classifies the outcome.
			return
		}
		if found != nil {
			r.setWinner(w, found)
			return
		}
	}
}

// setWinner records the first goal state and cancels everyone else.
func (r *parallelRun) setWinner(w *worker, st *symex.State) {
	r.winnerMu.Lock()
	if r.winner == nil {
		r.winner = st
		r.winnerW = w.id
		w.found = true
	}
	r.winnerMu.Unlock()
	r.done.Store(true)
	r.cancel()
}

// progress emits one driver-side progress/recorder sample from the shared
// atomics. Per-worker solver counters are deliberately absent: reading
// them here would race with the workers, and the final Result carries the
// exact totals.
func (r *parallelRun) progress(now time.Time) {
	live := int(r.live.Load())
	searchFrontier.Observe(int64(live))
	ev := ProgressEvent{
		Phase:    PhaseSearch,
		Time:     now,
		Elapsed:  now.Sub(r.start),
		Steps:    r.steps.Load(),
		States:   r.states.Load(),
		Live:     live,
		Depth:    r.maxDepth.Load(),
		BestDist: r.bestFit.Load(),
	}
	if r.opts.OnProgress != nil {
		r.opts.OnProgress(ev)
	}
	r.opts.Recorder.Record(telemetry.Event{
		Kind:     telemetry.EventFrontier,
		Steps:    ev.Steps,
		States:   ev.States,
		Live:     live,
		Depth:    ev.Depth,
		BestDist: ev.BestDist,
	})
}

// --- cross-worker dedup -----------------------------------------------------

// stateKey fingerprints a state's decision history for cross-worker
// deduplication. Two states are interchangeable only when both their
// execution prefix AND their policy metadata coincide:
//
//   - the path condition (structurally equal live terms share one intern
//     ID, and IDs are never reused, so a collected term's ID cannot stand
//     for a later, different term the way its address could; at worst a
//     state equal to one whose terms were collected is admitted again)
//     plus the schedule, scheduled thread, and step count pin the
//     execution prefix — given those, the VM's evolution is
//     deterministic;
//   - SchedDist, Preemptions, and EagerForks are policy marks that gate
//     future forking (two positionally identical states with different
//     eager-fork budgets explore different futures);
//   - the K_S snapshot map is rollback capability: folded
//     order-independently (map iteration order must not change the key).
//
// The common duplicate source is snapshot activation: sibling states
// carry pointer-identical snapshots and would regenerate each other's
// activation forks in every worker.
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
		mix(c.ID())
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
		for _, v := range [3]uint64{uint64(k.Obj), uint64(k.Off), uint64(uintptr(unsafe.Pointer(snap)))} {
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

const dedupShards = 16

// dedupSet is a sharded concurrent set of state fingerprints.
type dedupSet struct {
	shards [dedupShards]struct {
		mu sync.Mutex
		m  map[uint64]struct{}
	}
	size atomic.Int64
}

func newDedupSet() *dedupSet {
	d := &dedupSet{}
	for i := range d.shards {
		d.shards[i].m = make(map[uint64]struct{})
	}
	return d
}

// seen inserts key and reports whether it was already present.
func (d *dedupSet) seen(key uint64) bool {
	if d.size.Load() >= dedupCap {
		return false
	}
	s := &d.shards[key%dedupShards]
	s.mu.Lock()
	_, dup := s.m[key]
	if !dup {
		s.m[key] = struct{}{}
	}
	s.mu.Unlock()
	if !dup {
		d.size.Add(1)
	}
	return dup
}
