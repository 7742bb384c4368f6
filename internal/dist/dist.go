// Package dist implements ESD's proximity heuristics (§4 / Algorithm 1):
// static, conservative estimates of how much work a thread must still do
// before control can reach a goal location. Two metrics share one machinery:
//
//   - The *instruction* metric (StateDistance): every instruction costs one
//     step. This is the data-distance of §4 that guides path search.
//   - The *synchronization* metric (SyncDistance, §4.1): only sync
//     operations (lock/unlock/wait/signal/create/join/yield) cost a step;
//     all other instructions are free. This is the schedule distance that
//     ranks how many scheduling-relevant events separate a thread from its
//     goal lock site — the graded replacement for a binary near/far bias.
//
// Each metric is built from three layers:
//
//  1. Goal-independent function summaries. For every function the
//     Calculator computes, at instruction granularity, the cheapest cost
//     from each instruction to a return of the function (retDist), and from
//     that the function's "through" cost — the cheapest entry-to-return
//     path. A call costs its base cost plus through(callee), so the
//     summaries are interprocedural: they account for the cheapest complete
//     execution of every callee on the path. Functions from which no return
//     is statically reachable (the abort-only wrappers) get an Infinite
//     through cost, which correctly makes paths that must step over them
//     unreachable.
//
//  2. Per-goal tables, computed lazily the first time a goal is queried
//     and memoized for the lifetime of the Calculator. toGoal[f][i] is the
//     cheapest cost from instruction i of f to the goal, where a call may
//     either be stepped over (base + through(callee)) or entered
//     (base + entry-to-goal cost of the callee). Entry costs are resolved
//     by a fixpoint over the functions that can reach the goal's function
//     in the call graph (internal/cfa's CallGraph, so proximity and pruning
//     agree on reachability). ThreadCreate spawn sites count as entries:
//     a thread about to spawn the goal-reaching worker is close to the
//     goal even though a different thread will ultimately execute it.
//
//  3. Stack-aware composition (Algorithm 1). A thread may reach the goal
//     from its current frame, or return out of any number of frames and
//     reach it from a caller. StateDistance/SyncDistance walk the live
//     stack from the innermost frame outward, accumulating the cost of
//     unwinding (retDist of each abandoned frame) and taking the minimum of
//     unwind-cost + toGoal at every resume point. Frames the thread can
//     never return out of cut the walk off, so a thread stuck below a
//     non-returning frame is Infinite unless the goal is still ahead of it.
//
// The search queries one Calculator from every virtual goal queue at every
// scheduling step, so the memoized lookup path is the hottest code in the
// system: after the first query for a goal, both distance functions perform
// only a read-locked map lookup and an O(stack depth) walk over precomputed
// arrays (see BenchmarkStateDistance and BenchmarkSyncDistance).
package dist

import (
	"container/heap"
	"sync"
	"sync/atomic"

	"esd/internal/cfa"
	"esd/internal/mir"
	"esd/internal/telemetry"
)

// Infinite is the distance of a state that statically cannot reach the
// goal. It is large enough to dominate any finite path cost yet small
// enough that summing several Infinites cannot overflow int64 before the
// add clamp catches them.
const Infinite int64 = 1 << 60

// Calculator answers stack-aware distance queries over one program. It is
// safe for concurrent use; per-goal tables are computed once and cached.
type Calculator struct {
	prog *mir.Program
	cg   *cfa.CallGraph

	// index maps a function's name to its position in prog.Order, which
	// indexes fns and every per-function table of the metrics: a stack
	// walk resolves each frame's function once.
	index map[string]int
	fns   []*fnGraph
	// hasSync records whether the program contains any synchronization
	// opcode; when it does not, every SyncDistance is trivially 0 or
	// Infinite and callers can skip the sync component entirely.
	hasSync bool

	steps *metric // unit instruction cost (§4 data distance)

	// The sync metric (§4.1 schedule distance) is built on first use:
	// plain crash searches and sync-free programs never pay for it. The
	// atomic pointer lets diagnostics observe without building.
	syncOnce sync.Once
	syncM    atomic.Pointer[metric]
}

// syncMetric returns (building on first use) the sync-operation metric.
func (c *Calculator) syncMetric() *metric {
	c.syncOnce.Do(func() {
		c.syncM.Store(c.newMetric("sync", func(op mir.Opcode) int64 {
			if op.IsSync() {
				return 1
			}
			return 0
		}))
	})
	return c.syncM.Load()
}

// metric is one cost model's view of the program: through summaries,
// per-instruction return distances, and memoized per-goal tables. The base
// function assigns the cost of executing a single instruction.
type metric struct {
	c    *Calculator
	base func(op mir.Opcode) int64
	// lookups/builds are this metric kind's cached children of the
	// esd_dist_* counter families (resolved once here so the hot lookup
	// path never touches the label map).
	lookups *telemetry.Counter
	builds  *telemetry.Counter
	// through[f] is the cheapest entry-to-return cost of f (Infinite when
	// f cannot return).
	through map[string]int64
	// retDist[f][i] is the cheapest cost to execute from instruction i of
	// the function with index f through a return of the function,
	// inclusive of the Ret itself.
	retDist [][]int64

	mu    sync.RWMutex
	goals map[mir.Loc]*goalTables
}

// fnGraph is a function's CFG flattened to instruction granularity.
type fnGraph struct {
	fn *mir.Func
	// start[b] is the flat index of block b's first instruction.
	start []int
	instr []*mir.Instr
	// preds[j] lists the flat indices whose execution can transfer control
	// to instruction j (edge weight is the source instruction's step cost).
	preds [][]int
	rets  []int // flat indices of Ret terminators
}

func newFnGraph(f *mir.Func) *fnGraph {
	g := &fnGraph{fn: f, start: make([]int, len(f.Blocks))}
	n := 0
	for i, blk := range f.Blocks {
		g.start[i] = n
		n += len(blk.Instrs)
	}
	g.instr = make([]*mir.Instr, 0, n)
	g.preds = make([][]int, n)
	for _, blk := range f.Blocks {
		g.instr = append(g.instr, blk.Instrs...)
	}
	for _, blk := range f.Blocks {
		for i, in := range blk.Instrs {
			src := g.start[blk.ID] + i
			switch {
			case !in.Op.IsTerminator():
				g.preds[src+1] = append(g.preds[src+1], src)
			case in.Op == mir.Jmp:
				g.preds[g.start[in.Then]] = append(g.preds[g.start[in.Then]], src)
			case in.Op == mir.Br:
				g.preds[g.start[in.Then]] = append(g.preds[g.start[in.Then]], src)
				if in.Else != in.Then {
					g.preds[g.start[in.Else]] = append(g.preds[g.start[in.Else]], src)
				}
			case in.Op == mir.Ret:
				g.rets = append(g.rets, src)
			}
			// Abort: control never continues.
		}
	}
	return g
}

// flat maps a location to its flat instruction index.
func (g *fnGraph) flat(l mir.Loc) (int, bool) {
	if l.Block < 0 || l.Block >= len(g.fn.Blocks) {
		return 0, false
	}
	if l.Index < 0 || l.Index >= len(g.fn.Blocks[l.Block].Instrs) {
		return 0, false
	}
	return g.start[l.Block] + l.Index, true
}

// goalTables holds the memoized per-goal distances; once guards the
// computation so concurrent first queries for the same goal build it once.
type goalTables struct {
	once sync.Once
	// toGoal[f][i] is the cheapest cost from instruction i of the function
	// with index f to the goal. Functions that cannot reach the goal have
	// a nil table.
	toGoal [][]int64
}

// NewCalculator builds the goal-independent layer: flattened CFGs, the call
// graph, and both metrics' through/retDist function summaries.
func NewCalculator(prog *mir.Program) *Calculator {
	return NewCalculatorWith(cfa.BuildCallGraph(prog))
}

// sharedCalcs is the cross-run Calculator cache. Harnesses rebuild
// structurally identical programs for every configuration of a sweep
// (esdexp ablations, benchmark re-runs); the per-goal tables are the
// expensive part of a Calculator, and everything a cached table answers is
// expressed in location/name terms, so a Calculator built from one copy of
// a program answers queries for any identical copy. The key pairs the
// structural fingerprint with the program's name and sizes, so a bare
// 64-bit hash collision cannot silently serve the wrong program's tables.
type calcKey struct {
	fp     uint64
	name   string
	funcs  int
	instrs int
}

// calcEntry defers construction out of the cache lock: concurrent searches
// on different programs build their Calculators in parallel, and ones on
// the same program build it once.
type calcEntry struct {
	once sync.Once
	calc *Calculator
}

var sharedCalcs = struct {
	sync.Mutex
	m map[calcKey]*calcEntry
}{m: map[calcKey]*calcEntry{}}

// Shared-cache traffic counters: a hit is a ForProgram call that found an
// existing entry (the caller shares tables built by an earlier run —
// exactly what many syntheses over one program are supposed to do, and
// what the engine's tests assert).
var sharedHits, sharedMisses atomic.Int64

// SharedCacheStats reports cumulative ForProgram cache hits and misses.
func SharedCacheStats() (hits, misses int64) {
	return sharedHits.Load(), sharedMisses.Load()
}

// ForProgram returns a Calculator for cg's program, reusing one built for
// a structurally identical program in an earlier run when available. The
// Calculator is safe for concurrent use, so sharing across simultaneous
// searches is sound.
func ForProgram(cg *cfa.CallGraph) *Calculator {
	prog := cg.Prog
	key := calcKey{
		fp:     prog.Fingerprint(),
		name:   prog.Name,
		funcs:  len(prog.Funcs),
		instrs: prog.NumInstrs(),
	}
	sharedCalcs.Lock()
	ent := sharedCalcs.m[key]
	if ent == nil {
		ent = &calcEntry{}
		sharedCalcs.m[key] = ent
		sharedMisses.Add(1)
	} else {
		sharedHits.Add(1)
	}
	sharedCalcs.Unlock()
	ent.once.Do(func() { ent.calc = NewCalculatorWith(cg) })
	return ent.calc
}

// ResetSharedCache drops all cross-run Calculators (tests and memory
// pressure relief for long-lived processes).
func ResetSharedCache() {
	sharedCalcs.Lock()
	defer sharedCalcs.Unlock()
	sharedCalcs.m = map[calcKey]*calcEntry{}
}

// NewCalculatorWith is NewCalculator over a prebuilt call graph (shared
// with the cfa analyses of the same program).
func NewCalculatorWith(cg *cfa.CallGraph) *Calculator {
	prog := cg.Prog
	c := &Calculator{
		prog:  prog,
		cg:    cg,
		index: make(map[string]int, len(prog.Order)),
		fns:   make([]*fnGraph, len(prog.Order)),
	}
	for i, name := range prog.Order {
		g := newFnGraph(prog.Funcs[name])
		c.index[name] = i
		c.fns[i] = g
		for _, in := range g.instr {
			if in.Op.IsSync() {
				c.hasSync = true
			}
		}
	}
	c.steps = c.newMetric("steps", func(mir.Opcode) int64 { return 1 })
	return c
}

// newMetric builds one cost model's goal-independent layer: the through
// fixpoint and the per-function return-distance arrays. name labels the
// metric's telemetry series ("steps" or "sync").
func (c *Calculator) newMetric(name string, base func(mir.Opcode) int64) *metric {
	m := &metric{
		c:       c,
		base:    base,
		lookups: distLookups.With(name),
		builds:  distBuilds.With(name),
		through: make(map[string]int64, len(c.prog.Funcs)),
		retDist: make([][]int64, len(c.fns)),
		goals:   map[mir.Loc]*goalTables{},
	}
	for name := range c.prog.Funcs {
		m.through[name] = Infinite
	}
	// Through-cost fixpoint: costs only decrease (a callee's through
	// dropping can only shorten its callers' return paths), so iterate
	// until stable. Leaf functions settle in the first round; the round
	// count is bounded by the call-graph depth.
	for changed := true; changed; {
		changed = false
		for i, name := range c.prog.Order {
			rd := m.intraRetDist(c.fns[i])
			if len(rd) > 0 && rd[0] < m.through[name] {
				m.through[name] = rd[0]
				changed = true
			}
		}
	}
	for i, g := range c.fns {
		m.retDist[i] = m.intraRetDist(g)
	}
	return m
}

// add is Infinite-saturating addition.
func add(a, b int64) int64 {
	if a >= Infinite || b >= Infinite {
		return Infinite
	}
	return a + b
}

// stepWeight is the cost of executing one instruction and arriving at its
// intra-function successor. Calls cost the call itself plus the cheapest
// complete execution of some callee; an indirect call with no address-taken
// targets cannot execute at all.
func (m *metric) stepWeight(in *mir.Instr) int64 {
	if in.Op != mir.Call {
		// ThreadCreate returns to the spawner immediately; the spawned
		// thread's cost is not on this thread's path.
		return m.base(in.Op)
	}
	targets := m.c.cg.Targets(in)
	if len(targets) == 0 {
		return Infinite
	}
	best := Infinite
	for _, t := range targets {
		if th := m.through[t]; th < best {
			best = th
		}
	}
	return add(m.base(in.Op), best)
}

// intraRetDist computes, for every instruction of g, the cheapest cost to
// execute from it through a return of the function (using the current
// through summaries for calls it steps over).
func (m *metric) intraRetDist(g *fnGraph) []int64 {
	d := newDistArray(len(g.instr))
	var pq pqueue
	for _, r := range g.rets {
		// Executing the Ret completes the function at the Ret's base cost.
		d[r] = m.base(mir.Ret)
		heap.Push(&pq, pqItem{r, d[r]})
	}
	m.relax(g, d, &pq)
	return d
}

// relax runs backward Dijkstra: pops settle in increasing distance order
// and propagate to predecessors with the source instruction's step weight.
// Zero-cost edges (the sync metric's non-sync instructions) are fine:
// Dijkstra only requires non-negative weights.
func (m *metric) relax(g *fnGraph, d []int64, pq *pqueue) {
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if it.d > d[it.i] {
			continue // stale entry
		}
		for _, p := range g.preds[it.i] {
			nd := add(m.stepWeight(g.instr[p]), it.d)
			if nd < d[p] {
				d[p] = nd
				heap.Push(pq, pqItem{p, nd})
			}
		}
	}
}

// tables returns (building if necessary) the memoized tables for goal.
func (m *metric) tables(goal mir.Loc) *goalTables {
	m.lookups.Inc()
	m.mu.RLock()
	gt := m.goals[goal]
	m.mu.RUnlock()
	if gt == nil {
		m.mu.Lock()
		if gt = m.goals[goal]; gt == nil {
			gt = &goalTables{}
			m.goals[goal] = gt
		}
		m.mu.Unlock()
	}
	gt.once.Do(func() { m.computeGoal(goal, gt) })
	return gt
}

// computeGoal builds the per-goal distance tables: a fixpoint over the
// functions that can reach the goal's function, each round recomputing
// every function's intra-procedural distances with the current
// entry-to-goal costs of its callees. Entry costs only decrease, so the
// loop terminates; the final round runs with converged entries, leaving
// every stored table consistent.
func (m *metric) computeGoal(goal mir.Loc, gt *goalTables) {
	m.builds.Inc()
	gt.toGoal = make([][]int64, len(m.c.fns))
	gi, ok := m.c.index[goal.Fn]
	if !ok {
		return // unknown goal: every query will answer Infinite
	}
	if _, ok := m.c.fns[gi].flat(goal); !ok {
		return
	}
	reach := m.c.cg.Reachers(goal.Fn)
	entry := make(map[string]int64, len(reach))
	for fn := range reach {
		entry[fn] = Infinite
	}
	for changed := true; changed; {
		changed = false
		for i, name := range m.c.prog.Order {
			if !reach[name] {
				continue
			}
			tg := m.intraToGoal(m.c.fns[i], name, goal, entry)
			if len(tg) > 0 && tg[0] < entry[name] {
				entry[name] = tg[0]
				changed = true
			}
			gt.toGoal[i] = tg
		}
	}
}

// intraToGoal computes the cheapest cost from every instruction of fn to
// the goal: either a local CFG path (stepping over calls at through cost),
// or entering a call/spawn whose target can reach the goal.
func (m *metric) intraToGoal(g *fnGraph, name string, goal mir.Loc, entry map[string]int64) []int64 {
	d := newDistArray(len(g.instr))
	var pq pqueue
	if name == goal.Fn {
		if i, ok := g.flat(goal); ok {
			d[i] = 0 // being at the goal is distance zero
			heap.Push(&pq, pqItem{i, 0})
		}
	}
	for i, in := range g.instr {
		if in.Op != mir.Call && in.Op != mir.ThreadCreate {
			continue
		}
		for _, t := range m.c.cg.Targets(in) {
			if e, ok := entry[t]; ok && e < Infinite {
				// Entering costs the call/spawn instruction itself plus the
				// callee's entry-to-goal cost.
				if nd := add(m.base(in.Op), e); nd < d[i] {
					d[i] = nd
					heap.Push(&pq, pqItem{i, nd})
				}
			}
		}
	}
	m.relax(g, d, &pq)
	return d
}

// stateDistance is Algorithm 1 for one metric: the cheapest static cost
// for a thread with the given call stack (outermost frame first, each
// frame's Loc naming the next instruction it will execute) to reach goal.
func (m *metric) stateDistance(stack []mir.Loc, goal mir.Loc) int64 {
	gt := m.tables(goal)
	best := Infinite
	var unwind int64 // cost of returning out of every frame below the current one
	for k := len(stack) - 1; k >= 0; k-- {
		loc := stack[k]
		fi, ok := m.c.index[loc.Fn]
		if !ok {
			break
		}
		i, ok := m.c.fns[fi].flat(loc)
		if !ok {
			break
		}
		if tg := gt.toGoal[fi]; tg != nil {
			if d := add(unwind, tg[i]); d < best {
				best = d
			}
		}
		unwind = add(unwind, m.retDist[fi][i])
		if unwind >= Infinite {
			break // this frame can never return: outer frames are unreachable
		}
	}
	return best
}

// cachedGoals reports how many goals have memoized tables.
func (m *metric) cachedGoals() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.goals)
}

// StateDistance is Algorithm 1 under the instruction metric: the cheapest
// static number of instructions a thread with the given call stack must
// execute to reach goal. It returns 0 when the innermost frame is already
// at the goal and Infinite when no CFG path exists.
func (c *Calculator) StateDistance(stack []mir.Loc, goal mir.Loc) int64 {
	return c.steps.stateDistance(stack, goal)
}

// SyncDistance is Algorithm 1 under the synchronization metric (§4.1): the
// smallest number of synchronization operations (lock/unlock/wait/signal/
// create/join/yield) on any static path from the thread's current state to
// goal. It is 0 when the goal is reachable without passing another sync
// point (the thread is "scheduling-adjacent" to its goal lock site) and
// Infinite when no CFG path exists. SyncDistance never exceeds
// StateDistance: sync operations are a subset of instructions.
func (c *Calculator) SyncDistance(stack []mir.Loc, goal mir.Loc) int64 {
	return c.syncMetric().stateDistance(stack, goal)
}

// HasSync reports whether the program contains any synchronization opcode.
// Searches over sync-free (hence single-threaded) programs can skip the
// schedule-distance component: it is zero along every feasible path.
func (c *Calculator) HasSync() bool { return c.hasSync }

// Through returns the cheapest entry-to-return instruction cost of fn
// (Infinite when fn cannot return or does not exist). Exposed for
// diagnostics and tests.
func (c *Calculator) Through(fn string) int64 {
	if th, ok := c.steps.through[fn]; ok {
		return th
	}
	return Infinite
}

// SyncThrough returns the smallest number of sync operations on any
// entry-to-return path of fn (Infinite when fn cannot return or does not
// exist).
func (c *Calculator) SyncThrough(fn string) int64 {
	if th, ok := c.syncMetric().through[fn]; ok {
		return th
	}
	return Infinite
}

// DistToReturn returns the cheapest instruction cost from loc through a
// return of its function, the Ret included (Infinite when none is
// reachable).
func (c *Calculator) DistToReturn(loc mir.Loc) int64 {
	return metricDistToReturn(c.steps, loc)
}

// SyncDistToReturn returns the smallest number of sync operations from loc
// through a return of its function (Infinite when none is reachable).
func (c *Calculator) SyncDistToReturn(loc mir.Loc) int64 {
	return metricDistToReturn(c.syncMetric(), loc)
}

func metricDistToReturn(m *metric, loc mir.Loc) int64 {
	fi, ok := m.c.index[loc.Fn]
	if !ok {
		return Infinite
	}
	i, ok := m.c.fns[fi].flat(loc)
	if !ok {
		return Infinite
	}
	return m.retDist[fi][i]
}

// CachedGoals reports how many goals have memoized instruction-metric
// tables (diagnostics).
func (c *Calculator) CachedGoals() int { return c.steps.cachedGoals() }

// CachedSyncGoals reports how many goals have memoized sync-metric tables
// (diagnostics; 0 when the metric was never queried). It observes the
// lazy metric without building it.
func (c *Calculator) CachedSyncGoals() int {
	if m := c.syncM.Load(); m != nil {
		return m.cachedGoals()
	}
	return 0
}

func newDistArray(n int) []int64 {
	d := make([]int64, n)
	for i := range d {
		d[i] = Infinite
	}
	return d
}

// pqItem is a (flat index, tentative distance) pair in the Dijkstra queue.
type pqItem struct {
	i int
	d int64
}

type pqueue []pqItem

func (q pqueue) Len() int            { return len(q) }
func (q pqueue) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q pqueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pqueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pqueue) Pop() interface{} {
	old := *q
	n := len(old) - 1
	it := old[n]
	*q = old[:n]
	return it
}
