// Package sched implements ESD's thread-schedule synthesis policies (§4).
//
// The policies plug into the symbolic VM's preemption-point hooks
// (symex.Policy). Three are provided:
//
//   - DeadlockPolicy implements §4.1: snapshot states K_S taken before
//     every mutex acquisition, inner/outer-lock driven snapshot activation
//     and preemption, and the graded schedule-distance scoring (how many
//     sync operations separate a state from its goal lock sites).
//   - RacePolicy implements §4.2: preemption forking before accesses the
//     race detector flags, gated by the common-stack-prefix heuristic and
//     ranked by each alternative thread's sync distance to the fault site.
//   - BoundedPolicy implements the Chess-style preemption bounding the KC
//     baseline uses (§7.2): fork every scheduling alternative at sync
//     points, up to a preemption budget.
package sched

import (
	"sort"

	"esd/internal/dist"
	"esd/internal/mir"
	"esd/internal/symex"
)

// DeadlockPolicy steers schedule exploration toward a reported deadlock.
type DeadlockPolicy struct {
	// Goals are the inner-lock sites from the bug report: the lock
	// statements the deadlocked threads were blocked on (§4.1).
	Goals []mir.Loc

	// Dist supplies the graded sync-distance metric (§4.1) used to score
	// rolled-back states, widen inner-lock detection, and rank preemption
	// targets. When nil the policy degrades to its pre-graded behavior
	// (exact goal-site matching, round-robin preemption, sentinel-only
	// scoring).
	Dist *dist.Calculator

	// Stats
	SnapshotsTaken     int
	SnapshotsActivated int
	EagerForks         int
	Preemptions        int

	// Goal sites split by opcode (resolved lazily from the program):
	// mutex-acquisition goals drive the §4.1 snapshot/rollback machinery,
	// condvar wait goals drive the lost-wakeup decision point, and other
	// blocked sites (thread_join of a hung thread) steer neither — a join
	// site is reached by finishing work, not by winning a lock race.
	classified bool
	lockGoals  []mir.Loc
	waitGoals  []mir.Loc
	// Per-goal activation radii derived from the distance tables, aligned
	// with lockGoals/waitGoals (nil without a metric; see deriveRadii). A
	// radius is the graded widening of the inner-lock test: a mutex counts
	// as "acquired near the holder's inner lock" when its acquisition site
	// is at most that many sync operations away from a goal. Radius 0 is
	// the paper's exact-site test, which only fires when outer and inner
	// acquisitions share code (sqlite's recursive-mutex shim); small
	// positive radii also catch outer locks taken just before a call into
	// the inner-lock function (hawknl, the pipeline ring). Without a
	// metric only the exact-site test runs.
	lockRadii []int64
	waitRadii []int64
}

// classifyGoals resolves each goal's opcode once per policy and derives
// the per-goal activation radii.
func (p *DeadlockPolicy) classifyGoals(prog *mir.Program) {
	if p.classified {
		return
	}
	p.classified = true
	for _, g := range p.Goals {
		in := prog.InstrAt(g)
		if in == nil {
			continue
		}
		switch in.Op {
		case mir.MutexLock:
			p.lockGoals = append(p.lockGoals, g)
		case mir.CondWait:
			p.waitGoals = append(p.waitGoals, g)
		}
	}
	p.lockRadii = p.deriveRadii(p.lockGoals)
	p.waitRadii = p.deriveRadii(p.waitGoals)
}

const (
	// maxRollbacks bounds snapshot activations (and the preemptions an
	// eager fork spends) per state lineage. Without a bound, a single
	// contended mutex whose acquisition site is a goal can roll back
	// forever (each rollback recreates the symmetric situation); real
	// deadlocks need only a handful.
	maxRollbacks = 64
	// fallbackRadius is the activation radius of a goal with no finite
	// inter-goal estimate (see deriveRadii).
	fallbackRadius = 2

	// maxDerivedRadius caps the derived per-goal activation radius: the
	// inter-goal spacing can be large when a deadlock's parties sit in
	// distant code, but a radius beyond a few sync operations makes almost
	// every acquisition "near" a goal and floods the search with eager
	// forks that the fork budgets then spend on the wrong sites.
	maxDerivedRadius = 4
)

// deriveRadii computes a per-goal activation radius from the distance
// tables. The outer lock of a deadlock is acquired on the way to some
// party's inner lock, so the sync distance from the *other* goal sites to
// this goal estimates how far an outer acquisition plausibly sits from
// it: tightly-coupled parties (sqlite's recursive shim, goals in the same
// function) get radius 1, loosely-coupled ones (hawknl's cross-module
// cycle) up to maxDerivedRadius. With no finite estimate — single-goal
// reports, statically unreachable pairs — fallbackRadius applies.
func (p *DeadlockPolicy) deriveRadii(goals []mir.Loc) []int64 {
	if p.Dist == nil || len(goals) == 0 {
		return nil
	}
	radii := make([]int64, len(goals))
	for i, g := range goals {
		best := dist.Infinite
		for _, o := range p.Goals {
			if o == g {
				continue
			}
			if d := p.Dist.SyncDistance([]mir.Loc{o}, g); d < best {
				best = d
			}
		}
		r := int64(fallbackRadius)
		if best < dist.Infinite {
			r = min(max(best, 1), maxDerivedRadius)
		}
		radii[i] = r
	}
	return radii
}

// lockActivation is the graded inner-lock test with per-goal radii: the
// smallest sync distance from loc to any lock goal, and whether loc is
// within the activation radius of at least one of them.
func (p *DeadlockPolicy) lockActivation(loc mir.Loc) (int64, bool) {
	if p.isLockGoalSite(loc) {
		return 0, true
	}
	if p.Dist == nil {
		return dist.Infinite, false
	}
	best, within := dist.Infinite, false
	for i, g := range p.lockGoals {
		d := p.Dist.SyncDistance([]mir.Loc{loc}, g)
		if d < best {
			best = d
		}
		if d <= p.lockRadii[i] {
			within = true
		}
	}
	return best, within
}

// waitActivation is the condition-variable analog of lockActivation,
// testing loc against the wait goals and their derived radii.
func (p *DeadlockPolicy) waitActivation(loc mir.Loc) (int64, bool) {
	for _, g := range p.waitGoals {
		if g == loc {
			return 0, true
		}
	}
	if p.Dist == nil {
		return dist.Infinite, false
	}
	best, within := dist.Infinite, false
	for i, g := range p.waitGoals {
		d := p.Dist.SyncDistance([]mir.Loc{loc}, g)
		if d < best {
			best = d
		}
		if d <= p.waitRadii[i] {
			within = true
		}
	}
	return best, within
}

var _ symex.Policy = (*DeadlockPolicy)(nil)

func (p *DeadlockPolicy) isLockGoalSite(loc mir.Loc) bool {
	for _, g := range p.lockGoals {
		if g == loc {
			return true
		}
	}
	return false
}

// goalSyncDist is the graded inner-lock test: the smallest number of sync
// operations between loc and a goal *lock* site (0 when loc is itself
// one). A thread that acquired a mutex at a site with a small value
// plausibly holds an outer lock of the deadlock. Non-acquisition goals
// (condvar waits, joins) deliberately do not participate: holding a mutex
// "near" a wait site does not make a thread a cycle party, and preempting
// it there starves the wait it must reach (see beforeCondWait).
func (p *DeadlockPolicy) goalSyncDist(loc mir.Loc) int64 {
	if p.isLockGoalSite(loc) {
		return 0
	}
	return minSyncDist(p.Dist, []mir.Loc{loc}, p.lockGoals)
}

// minSyncDist is the smallest §4.1 sync-operation distance from stack to
// any goal under calc (Infinite without a metric, goals, or a match).
func minSyncDist(calc *dist.Calculator, stack []mir.Loc, goals []mir.Loc) int64 {
	if calc == nil {
		return dist.Infinite
	}
	best := dist.Infinite
	for _, g := range goals {
		if d := calc.SyncDistance(stack, g); d < best {
			best = d
		}
	}
	return best
}

// BeforeSync implements the §4.1 algorithm at mutex-acquisition sites,
// extended to condition-variable wait sites for lost-wakeup deadlocks.
func (p *DeadlockPolicy) BeforeSync(e *symex.Engine, st *symex.State, in *mir.Instr) []*symex.State {
	p.classifyGoals(e.Prog)
	if in.Op == mir.CondWait {
		return p.beforeCondWait(e, st)
	}
	if in.Op != mir.MutexLock {
		return nil
	}
	key, ok := e.MutexKeyFor(st, in)
	if !ok {
		return nil
	}
	m := st.Mutexes[key]
	if m == nil || m.Holder == -1 {
		// The mutex is free: the current thread will acquire it. Take the
		// <M, S'> snapshot: a state in which the thread is preempted just
		// before acquiring M, so alternative schedules remain reachable.
		if len(st.RunnableThreads()) > 1 {
			snap := e.ForkState(st)
			p.preemptCurrent(snap)
			st.Snapshots[key] = snap
			p.SnapshotsTaken++
			// Graded eager exploration: acquiring a lock within the
			// activation radius of a goal is a §4.1 decision point — the
			// deadlock may need this thread to hold off while the other
			// parties take their outer locks first. Multi-party circular
			// waits (three or more threads) are built exclusively from
			// these alternatives: no single rollback reconstructs them.
			// The fork enters the search scored by the site's graded
			// distance, so nearer decision points are explored first.
			// A lineage forks at most one per goal plus one: an N-party
			// deadlock needs about N threads to defer an acquisition, and
			// anything looser lets two contending threads regenerate each
			// other's alternatives combinatorially.
			if d, near := p.lockActivation(st.Loc()); p.Dist != nil && near &&
				st.Preemptions < maxRollbacks && st.EagerForks < len(p.Goals)+1 {
				alt := e.ForkState(snap)
				alt.SchedDist = d
				alt.Preemptions = st.Preemptions + 1
				alt.EagerForks = st.EagerForks + 1
				p.EagerForks++
				return []*symex.State{alt}
			}
		}
		return nil
	}
	// M is held by another thread T2 (or self). If M was acquired at (or
	// within the activation radius of) T2's inner lock — the site T2's
	// goal names — then M could be the current thread's outer lock:
	// activate the snapshot taken before T2 acquired M, giving the
	// current thread a chance to get M first.
	_, near := p.lockActivation(m.AcqLoc)
	if (near || m.Holder == st.Cur) && st.Preemptions < maxRollbacks {
		if snap, has := st.Snapshots[key]; has && snap != nil {
			delete(st.Snapshots, key)
			// Activate a fork of the snapshot: sibling states may share the
			// stored snapshot pointer through copied K_S maps, and a state
			// must enter the search queue at most once.
			act := e.ForkState(snap)
			// Graded §4.1 scoring: the activated snapshot sits exactly on
			// the deadlock schedule (distance 0); the blocked current state
			// is on the wrong side of the rollback and is demoted behind
			// every state with a real sync-distance estimate.
			act.SchedDist = 0
			act.Preemptions = st.Preemptions + 1
			st.SchedDist = symex.SchedDistFar
			p.SnapshotsActivated++
			return []*symex.State{act}
		}
	}
	return nil
}

// beforeCondWait is the §4.1 decision point generalized to condition
// variables: a thread about to park at (or within the activation radius
// of) a goal wait site may need to be held back so the notifying thread
// runs first — that ordering is exactly the lost-wakeup deadlock, where
// the condition was checked under the lock but the signal fires before
// the wait begins and nobody is ever woken. The fork defers the wait (the
// pending CondWait executes when the thread is next scheduled) while a
// sync-distance-ranked alternative thread proceeds; no single rollback
// reconstructs this ordering because the parked thread never unblocks.
func (p *DeadlockPolicy) beforeCondWait(e *symex.Engine, st *symex.State) []*symex.State {
	if p.Dist == nil || len(p.waitGoals) == 0 || len(st.RunnableThreads()) <= 1 {
		return nil
	}
	d, near := p.waitActivation(st.Loc())
	// Same gates as the mutex-path eager fork: the graded per-goal
	// radius, the eager-fork budget, and the lineage's preemption/rollback
	// bound (preemptCurrent below spends a preemption).
	if !near || st.EagerForks >= len(p.Goals)+1 || st.Preemptions >= maxRollbacks {
		return nil
	}
	alt := e.ForkState(st)
	p.preemptCurrent(alt)
	if alt.Cur == st.Cur {
		// No other thread could be scheduled: the fork explores nothing.
		return nil
	}
	alt.SchedDist = d
	alt.EagerForks = st.EagerForks + 1
	p.EagerForks++
	return []*symex.State{alt}
}

// AfterSync preempts a thread right after it acquires its inner (goal)
// lock or a lock within the activation radius of one — keeping the lock
// held so another thread can come ask for it — and maintains the K_S map:
// snapshots die when their mutex is unlocked. The state's graded schedule
// distance is the acquisition site's sync distance to the goals: 0 for an
// inner lock held, small for an outer lock held just before it.
func (p *DeadlockPolicy) AfterSync(e *symex.Engine, st *symex.State, in *mir.Instr, key symex.MutexKey) {
	p.classifyGoals(e.Prog)
	switch in.Op {
	case mir.MutexUnlock:
		// A free mutex cannot be part of a deadlock (§4.1).
		delete(st.Snapshots, key)
	case mir.MutexLock, mir.CondWait:
		m := st.Mutexes[key]
		if m == nil || m.Holder != st.Cur {
			return
		}
		if d, near := p.lockActivation(m.AcqLoc); near {
			st.SchedDist = d
			p.preemptCurrent(st)
		}
	}
}

// PickNext delegates to round-robin.
func (p *DeadlockPolicy) PickNext(e *symex.Engine, st *symex.State) int { return -1 }

// preemptCurrent context-switches st away from its current thread if
// another thread can run, preferring the runnable thread the fewest sync
// operations away from a goal lock site (the graded §4.1 ranking; ties and
// the no-metric fallback pick the lowest thread ID for determinism).
func (p *DeadlockPolicy) preemptCurrent(st *symex.State) {
	best, bestD := -1, dist.Infinite
	for _, tid := range st.RunnableThreads() {
		if tid == st.Cur {
			continue
		}
		d := p.threadSyncDist(st, tid)
		if best == -1 || d < bestD {
			best, bestD = tid, d
		}
	}
	if best >= 0 {
		st.SwitchTo(best)
		st.Preemptions++
		p.Preemptions++
	}
}

// threadSyncDist is the graded schedule distance of one thread: the
// minimum over goals of the sync-operation count to reach the goal from
// the thread's current stack. Zero (everything equally good) without a
// metric.
func (p *DeadlockPolicy) threadSyncDist(st *symex.State, tid int) int64 {
	if p.Dist == nil {
		return 0
	}
	t := st.Thread(tid)
	if t == nil || len(t.Frames) == 0 {
		return dist.Infinite
	}
	return minSyncDist(p.Dist, t.Stack(), p.Goals)
}

// RacePolicy forks thread schedules before potentially racing accesses
// (§4.2). The VM only consults it at accesses the race detector flagged.
type RacePolicy struct {
	// Prefix is the common stack prefix from the bug report; preemption
	// forking is enabled only once every live thread's stack contains it
	// (§4.2). Empty means always enabled.
	Prefix []mir.Loc

	// Goals are the reported fault sites; together with Dist they rank the
	// forked preemption alternatives so the thread closest (in sync
	// operations) to the fault is scheduled first.
	Goals []mir.Loc
	// Dist supplies the graded sync-distance metric. Nil disables ranking
	// (forks are created in thread-ID order).
	Dist *dist.Calculator

	Preemptions int
}

var _ symex.Policy = (*RacePolicy)(nil)

// maxForkedPreemptions bounds a RacePolicy's forked schedule alternatives
// per state lineage, to keep the space in check.
const maxForkedPreemptions = 8

// prefixReached checks the §4.2 gating heuristic.
func (p *RacePolicy) prefixReached(st *symex.State) bool {
	if len(p.Prefix) == 0 {
		return true
	}
	for _, t := range st.Threads {
		if t.Status == symex.ThreadExited {
			continue
		}
		stack := t.Stack()
		if len(stack) < len(p.Prefix) {
			return false
		}
		for i, want := range p.Prefix {
			if stack[i].Fn != want.Fn {
				return false
			}
		}
	}
	return true
}

// BeforeSync forks one state per alternative runnable thread, preempting
// the current thread before the flagged access or synchronization
// operation (§4.2 places preemptions at both). Alternatives are created in
// order of increasing sync distance to the fault site, so the most
// promising preemption gets the lowest state ID (the search's tie-break)
// and round-robin reaches it first.
func (p *RacePolicy) BeforeSync(e *symex.Engine, st *symex.State, in *mir.Instr) []*symex.State {
	if !p.prefixReached(st) {
		return nil
	}
	if st.Preemptions >= maxForkedPreemptions {
		return nil
	}
	type cand struct {
		tid int
		d   int64
	}
	var cands []cand
	for _, tid := range st.RunnableThreads() {
		if tid == st.Cur {
			continue
		}
		cands = append(cands, cand{tid, p.threadSyncDist(st, tid)})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	var out []*symex.State
	for _, c := range cands {
		fork := e.ForkState(st)
		fork.SwitchTo(c.tid)
		fork.Preemptions++
		p.Preemptions++
		out = append(out, fork)
	}
	return out
}

// threadSyncDist is the graded §4.1 metric applied to the §4.2 goals: the
// sync-operation count from thread tid's stack to the nearest fault site.
func (p *RacePolicy) threadSyncDist(st *symex.State, tid int) int64 {
	if p.Dist == nil || len(p.Goals) == 0 {
		return 0
	}
	t := st.Thread(tid)
	if t == nil || len(t.Frames) == 0 {
		return dist.Infinite
	}
	return minSyncDist(p.Dist, t.Stack(), p.Goals)
}

// AfterSync is a no-op for races.
func (p *RacePolicy) AfterSync(e *symex.Engine, st *symex.State, in *mir.Instr, key symex.MutexKey) {
}

// PickNext delegates to round-robin.
func (p *RacePolicy) PickNext(e *symex.Engine, st *symex.State) int { return -1 }

// BoundedPolicy is the KC baseline's scheduler: iterative context bounding
// after Chess [29], forking every alternative thread at every sync point,
// with at most Limit forced preemptions per execution (ESD's evaluation
// uses 2, §7.2).
type BoundedPolicy struct {
	Limit int

	Preemptions int
}

var _ symex.Policy = (*BoundedPolicy)(nil)

// BeforeSync forks one state per alternative runnable thread.
func (p *BoundedPolicy) BeforeSync(e *symex.Engine, st *symex.State, in *mir.Instr) []*symex.State {
	limit := p.Limit
	if limit == 0 {
		limit = 2
	}
	if st.Preemptions >= limit {
		return nil
	}
	var out []*symex.State
	for _, tid := range st.RunnableThreads() {
		if tid == st.Cur {
			continue
		}
		fork := e.ForkState(st)
		fork.SwitchTo(tid)
		fork.Preemptions++
		p.Preemptions++
		out = append(out, fork)
	}
	return out
}

// AfterSync is a no-op.
func (p *BoundedPolicy) AfterSync(e *symex.Engine, st *symex.State, in *mir.Instr, key symex.MutexKey) {
}

// PickNext delegates to round-robin.
func (p *BoundedPolicy) PickNext(e *symex.Engine, st *symex.State) int { return -1 }
