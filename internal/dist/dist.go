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
//     (base + entry-to-goal cost of the callee). Only the functions that
//     can reach the goal's function in the call graph get a table
//     (internal/cfa's CallGraph, so proximity and pruning agree on
//     reachability). ThreadCreate spawn sites count as entries: a thread
//     about to spawn the goal-reaching worker is close to the goal even
//     though a different thread will ultimately execute it.
//
//     Each table of layers 1 and 2 is one backward Dijkstra over the
//     function's flattened CFG, and the through and entry costs are
//     fixpoints over the call graph. Both are solved callee first: the
//     functions are visited in a post-order of the call-and-spawn graph,
//     and a function is computed again only when a cost it read dropped.
//     Outside recursive cycles every table is computed once.
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
	cg *cfa.CallGraph

	// index maps a function's name to its position in prog.Order, which
	// indexes fns and every per-function table of the metrics: a stack
	// walk resolves each frame's function once.
	index map[string]int
	fns   []*fnGraph
	// order is a post-order of the call-and-spawn graph (pos[f] is f's
	// position in it): outside recursive cycles every function follows
	// the functions it calls or spawns, so the fixpoints, which always
	// recompute the earliest stale function, compute callees first.
	order, pos []int
	// callers[f] and spawners[f] list the functions with a call site
	// (spawn site) that can enter (start) f, once per site: the functions
	// whose tables read f's through cost (callers) or entry cost (both).
	callers, spawners [][]int32
	// hasSync records whether the program contains any synchronization
	// opcode; when it does not, every SyncDistance is trivially 0 or
	// Infinite and callers can skip the sync component entirely.
	hasSync bool

	steps *metric // unit instruction cost (§4 data distance)

	// The sync metric (§4.1 schedule distance) is built on first use:
	// plain crash searches and sync-free programs never pay for it.
	syncOnce sync.Once
	syncM    *metric
}

// syncMetric returns (building on first use) the sync-operation metric.
func (c *Calculator) syncMetric() *metric {
	c.syncOnce.Do(func() {
		c.syncM = c.newMetric("sync", func(op mir.Opcode) int64 {
			if op.IsSync() {
				return 1
			}
			return 0
		})
	})
	return c.syncM
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
	// through[f] is the cheapest entry-to-return cost of the function with
	// index f (Infinite when it cannot return).
	through []int64
	// retDist[f][i] is the cheapest cost to execute from instruction i of
	// the function with index f through a return of the function,
	// inclusive of the Ret itself.
	retDist [][]int64

	mu    sync.RWMutex
	goals map[mir.Loc]*goalTables
}

// fnGraph is a function's CFG flattened to instruction granularity, in
// flat arrays: the relaxation loop reads opcodes and predecessor lists
// without touching the instructions.
type fnGraph struct {
	fn *mir.Func
	// start[b] is the flat index of block b's first instruction.
	start []int
	ops   []mir.Opcode
	// preds[predOff[j]:predOff[j+1]] lists the flat indices whose execution
	// can transfer control to instruction j (edge weight is the source
	// instruction's step weight).
	predOff []int32
	preds   []int32
	rets    []int32 // flat indices of Ret terminators
	calls   []callSite
}

// callSite is a Call or ThreadCreate with its possible targets resolved
// to function indices (cfa.CallGraph.Targets).
type callSite struct {
	at      int32 // flat index
	targets []int32
}

func newFnGraph(f *mir.Func, targets func(*mir.Instr) []int32) *fnGraph {
	g := &fnGraph{fn: f, start: make([]int, len(f.Blocks))}
	n := 0
	for i, blk := range f.Blocks {
		g.start[i] = n
		n += len(blk.Instrs)
	}
	g.ops = make([]mir.Opcode, 0, n)
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			i := int32(len(g.ops))
			g.ops = append(g.ops, in.Op)
			switch in.Op {
			case mir.Ret:
				g.rets = append(g.rets, i)
			case mir.Call, mir.ThreadCreate:
				g.calls = append(g.calls, callSite{at: i, targets: targets(in)})
			}
		}
	}
	// edges visits every intra-function control transfer; Ret and Abort
	// have none.
	edges := func(visit func(src, dst int)) {
		for _, blk := range f.Blocks {
			for i, in := range blk.Instrs {
				src := g.start[blk.ID] + i
				switch {
				case !in.Op.IsTerminator():
					visit(src, src+1)
				case in.Op == mir.Jmp:
					visit(src, g.start[in.Then])
				case in.Op == mir.Br:
					visit(src, g.start[in.Then])
					if in.Else != in.Then {
						visit(src, g.start[in.Else])
					}
				}
			}
		}
	}
	// Count each instruction's predecessors into predOff[j+1], turn the
	// counts into offsets, fill each list by advancing its start, and
	// shift the advanced starts back.
	g.predOff = make([]int32, n+1)
	edges(func(_, dst int) { g.predOff[dst+1]++ })
	for j := range n {
		g.predOff[j+1] += g.predOff[j]
	}
	g.preds = make([]int32, g.predOff[n])
	edges(func(src, dst int) {
		g.preds[g.predOff[dst]] = int32(src)
		g.predOff[dst]++
	})
	copy(g.predOff[1:], g.predOff[:n])
	g.predOff[0] = 0
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

// Shared is the Calculator that every search of one program reads. Get
// builds it on the first call and hands the same one to every later or
// concurrent caller, so the holder of a program's Shared decides how long
// its tables live. The zero value is ready to use.
type Shared struct {
	once sync.Once
	calc *Calculator
}

// Table-build traffic: a miss is a Get that built its program's
// Calculator, a hit one that found it built (or waited for the build) —
// what many syntheses over one program are supposed to do, and what the
// engine's tests assert.
var sharedHits, sharedMisses atomic.Int64

// SharedCacheStats reports cumulative Shared.Get hits and misses across
// the process.
func SharedCacheStats() (hits, misses int64) {
	return sharedHits.Load(), sharedMisses.Load()
}

// Get returns the Calculator of prog, building it over a fresh call graph
// on the first call. Every call on one Shared must pass the same program.
func (s *Shared) Get(prog *mir.Program) *Calculator {
	built := false
	s.once.Do(func() {
		s.calc = NewCalculator(prog)
		built = true
	})
	if built {
		sharedMisses.Add(1)
	} else {
		sharedHits.Add(1)
	}
	return s.calc
}

// ResetSharedCache does nothing: each program's Shared holds its tables,
// so no process-wide cache is left to drop. It stays because the
// benchmark harness (perfbench/, a module that changes only with the
// benchmark) calls it before every cold unit; each unit runs on a fresh
// engine, whose programs build their tables anew.
func ResetSharedCache() {}

// NewCalculatorWith is NewCalculator over a prebuilt call graph, which
// CallGraph returns.
func NewCalculatorWith(cg *cfa.CallGraph) *Calculator {
	prog := cg.Prog
	n := len(prog.Order)
	c := &Calculator{
		cg:       cg,
		index:    make(map[string]int, n),
		fns:      make([]*fnGraph, n),
		callers:  make([][]int32, n),
		spawners: make([][]int32, n),
	}
	for i, name := range prog.Order {
		c.index[name] = i
	}
	// Resolve call targets to function indices once. A direct site's
	// targets are a one-element window of ident; an indirect call's are
	// the address-taken functions, shared by every indirect site.
	ident := make([]int32, n)
	for i := range ident {
		ident[i] = int32(i)
	}
	var addrTaken []int32
	for _, name := range cg.AddrTaken {
		if t, ok := c.index[name]; ok {
			addrTaken = append(addrTaken, int32(t))
		}
	}
	targets := func(in *mir.Instr) []int32 {
		if in.Sym == "" {
			return addrTaken
		}
		if t, ok := c.index[in.Sym]; ok {
			return ident[t : t+1]
		}
		return nil
	}
	for i, name := range prog.Order {
		g := newFnGraph(prog.Funcs[name], targets)
		c.fns[i] = g
		for _, op := range g.ops {
			if op.IsSync() {
				c.hasSync = true
			}
		}
		for _, cs := range g.calls {
			users := c.callers
			if g.ops[cs.at] == mir.ThreadCreate {
				users = c.spawners
			}
			for _, t := range cs.targets {
				users[t] = append(users[t], int32(i))
			}
		}
	}
	c.order = make([]int, 0, n)
	c.pos = make([]int, n)
	seen := make([]bool, n)
	var visit func(f int)
	visit = func(f int) {
		seen[f] = true
		for _, cs := range c.fns[f].calls {
			for _, t := range cs.targets {
				if !seen[t] {
					visit(int(t))
				}
			}
		}
		c.pos[f] = len(c.order)
		c.order = append(c.order, f)
	}
	for f := range c.fns {
		if !seen[f] {
			visit(f)
		}
	}
	c.steps = c.newMetric("steps", func(mir.Opcode) int64 { return 1 })
	return c
}

// settle runs a callee-first worklist to its fixpoint. dirty marks, by
// post-order position, the functions whose tables are stale; settle
// recomputes the earliest stale one (update) until none is left. When
// update reports that f's summary (its through or entry cost) dropped,
// the functions users lists for f read the lower cost and are stale
// again. Summaries only decrease, so this terminates. A function outside
// the call-and-spawn graph's cycles is computed exactly once, and every
// function's last computation, whose table it keeps, saw the final costs
// of the functions it reads.
func (c *Calculator) settle(dirty []bool, update func(f int) bool, users ...[][]int32) {
	for p := 0; p < len(dirty); p++ {
		if !dirty[p] {
			continue
		}
		dirty[p] = false
		f := c.order[p]
		if !update(f) {
			continue
		}
		next := p + 1
		for _, u := range users {
			for _, g := range u[f] {
				q := c.pos[g]
				dirty[q] = true
				next = min(next, q)
			}
		}
		p = next - 1
	}
}

// newMetric builds one cost model's goal-independent layer: every
// function's return-distance table and through cost, computed callee
// first by settle. A callee's through dropping can only shorten its
// callers' return paths, so only its callers are recomputed. name labels
// the metric's telemetry series ("steps" or "sync").
func (c *Calculator) newMetric(name string, base func(mir.Opcode) int64) *metric {
	m := &metric{
		c:       c,
		base:    base,
		lookups: distLookups.With(name),
		builds:  distBuilds.With(name),
		through: fill(nil, len(c.fns)),
		retDist: make([][]int64, len(c.fns)),
		goals:   map[mir.Loc]*goalTables{},
	}
	dirty := make([]bool, len(c.fns))
	for i := range dirty {
		dirty[i] = true
	}
	var sc scratch
	c.settle(dirty, func(f int) bool {
		rd := m.intraRetDist(f, &sc)
		if len(rd) > 0 && rd[0] < m.through[f] {
			m.through[f] = rd[0]
			return true
		}
		return false
	}, c.callers)
	return m
}

// add is Infinite-saturating addition.
func add(a, b int64) int64 {
	if a >= Infinite || b >= Infinite {
		return Infinite
	}
	return a + b
}

// cheapest is the least of vals over targets (Infinite when there are
// none).
func cheapest(vals []int64, targets []int32) int64 {
	best := Infinite
	for _, t := range targets {
		best = min(best, vals[t])
	}
	return best
}

// scratch is one fixpoint's reusable relaxation state.
type scratch struct {
	w  []int64
	pq pqueue
}

// weights returns the step weight of every instruction of g: the cost of
// executing it and arriving at its intra-function successor. Calls cost
// the call itself plus the cheapest complete execution of some callee
// under the current through costs; an indirect call with no address-taken
// targets cannot execute at all. ThreadCreate returns to the spawner
// immediately: the spawned thread's cost is not on this thread's path.
func (m *metric) weights(g *fnGraph, sc *scratch) []int64 {
	w := sc.w[:0]
	for _, op := range g.ops {
		w = append(w, m.base(op))
	}
	for _, cs := range g.calls {
		if g.ops[cs.at] == mir.Call {
			w[cs.at] = add(w[cs.at], cheapest(m.through, cs.targets))
		}
	}
	sc.w = w
	return w
}

// intraRetDist computes, into f's retDist table, the cheapest cost to
// execute from every instruction of f through a return of the function.
func (m *metric) intraRetDist(f int, sc *scratch) []int64 {
	g := m.c.fns[f]
	w := m.weights(g, sc)
	d := fill(m.retDist[f], len(g.ops))
	m.retDist[f] = d
	// Executing the Ret completes the function at the Ret's base cost.
	ret := m.base(mir.Ret)
	for _, r := range g.rets {
		d[r] = ret
		sc.pq.push(pqItem{r, ret})
	}
	relax(g, w, d, &sc.pq)
	return d
}

// relax runs backward Dijkstra: pops settle in increasing distance order
// and propagate to predecessors with the source instruction's step weight
// w. Zero-cost edges (the sync metric's non-sync instructions) are fine:
// Dijkstra only requires non-negative weights.
func relax(g *fnGraph, w, d []int64, pq *pqueue) {
	for len(*pq) > 0 {
		it := pq.pop()
		if it.d > d[it.i] {
			continue // stale entry
		}
		for _, p := range g.preds[g.predOff[it.i]:g.predOff[it.i+1]] {
			if nd := add(w[p], it.d); nd < d[p] {
				d[p] = nd
				pq.push(pqItem{p, nd})
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

// computeGoal builds the per-goal distance tables of the functions that
// can reach the goal's function, callee first by settle. A function's
// entry cost is its table's first entry; when it drops, the functions
// that call or spawn it are recomputed.
func (m *metric) computeGoal(goal mir.Loc, gt *goalTables) {
	m.builds.Inc()
	c := m.c
	gt.toGoal = make([][]int64, len(c.fns))
	gf, ok := c.index[goal.Fn]
	if !ok {
		return // unknown goal: every query will answer Infinite
	}
	at, ok := c.fns[gf].flat(goal)
	if !ok {
		return
	}
	// Reachers is closed under callers and spawners, so settle never
	// marks a function outside it.
	dirty := make([]bool, len(c.fns))
	for fn := range c.cg.Reachers(goal.Fn) {
		dirty[c.pos[c.index[fn]]] = true
	}
	entry := fill(nil, len(c.fns))
	var sc scratch
	c.settle(dirty, func(f int) bool {
		goalAt := -1
		if f == gf {
			goalAt = at
		}
		tg := m.intraToGoal(f, goalAt, entry, gt, &sc)
		if len(tg) > 0 && tg[0] < entry[f] {
			entry[f] = tg[0]
			return true
		}
		return false
	}, c.callers, c.spawners)
}

// intraToGoal computes, into f's table of gt, the cheapest cost from every
// instruction of f to the goal (at flat index goalAt of f, or -1 when the
// goal is in another function): either a local CFG path (stepping over
// calls at through cost), or entering a call/spawn whose target can reach
// the goal.
func (m *metric) intraToGoal(f, goalAt int, entry []int64, gt *goalTables, sc *scratch) []int64 {
	g := m.c.fns[f]
	w := m.weights(g, sc)
	d := fill(gt.toGoal[f], len(g.ops))
	gt.toGoal[f] = d
	if goalAt >= 0 {
		d[goalAt] = 0 // being at the goal is distance zero
		sc.pq.push(pqItem{int32(goalAt), 0})
	}
	for _, cs := range g.calls {
		// Entering costs the call/spawn instruction itself plus the
		// cheapest entry-to-goal cost of its targets.
		if e := cheapest(entry, cs.targets); e < Infinite {
			if nd := add(m.base(g.ops[cs.at]), e); nd < d[cs.at] {
				d[cs.at] = nd
				sc.pq.push(pqItem{cs.at, nd})
			}
		}
	}
	relax(g, w, d, &sc.pq)
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

// CallGraph returns the call graph the Calculator's tables were built on.
func (c *Calculator) CallGraph() *cfa.CallGraph { return c.cg }

// fill returns d, or a new table when d is nil, with its n entries set to
// Infinite: a function recomputed in a recursive cycle reuses its table.
func fill(d []int64, n int) []int64 {
	if d == nil {
		d = make([]int64, n)
	}
	for i := range d {
		d[i] = Infinite
	}
	return d
}

// pqItem is a (flat index, tentative distance) pair in the Dijkstra queue.
type pqItem struct {
	i int32
	d int64
}

// pqueue is a binary min-heap of pqItems on d.
type pqueue []pqItem

// push adds it, sifting it up from the end.
func (q *pqueue) push(it pqItem) {
	h := append(*q, it)
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if h[p].d <= it.d {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = it
	*q = h
}

// pop removes and returns the item of least d, sifting the last item down
// from the root.
func (q *pqueue) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	j := 0
	for {
		k := 2*j + 1
		if k >= n {
			break
		}
		if k+1 < n && h[k+1].d < h[k].d {
			k++
		}
		if last.d <= h[k].d {
			break
		}
		h[j] = h[k]
		j = k
	}
	if n > 0 {
		h[j] = last
	}
	*q = h
	return top
}
