// Package cfa implements the static phase of ESD's path search (§3.2):
// inter-procedural control-flow analysis over MIR that computes, for a goal
// <B,C>,
//
//   - goal reachability per function and per block (used to prune paths
//     that statically cannot lead to the goal),
//   - critical edges: branch outcomes that must be taken on any path to
//     the goal, and
//   - intermediate goals: blocks containing reaching definitions that give
//     critical branch conditions their required value.
//
// The analyses are conservative in the direction the paper requires:
// pruning only rejects paths that provably cannot reach the goal, and
// intermediate goals are "must pass through" hints for the dynamic phase.
package cfa

import (
	"fmt"

	"esd/internal/expr"
	"esd/internal/mir"
)

// BlockRef names a basic block program-wide.
type BlockRef struct {
	Fn    string
	Block int
}

// String renders the reference.
func (b BlockRef) String() string { return fmt.Sprintf("%s@b%d", b.Fn, b.Block) }

// CallGraph is the whole-program call structure shared by the static
// analyses: per-callee call sites (ThreadCreate spawn sites included, since
// a spawned thread executes its target) and the address-taken function set
// that bounds indirect call targets. internal/dist builds its
// interprocedural distance summaries over the same graph so pruning and
// proximity agree on what is reachable.
type CallGraph struct {
	Prog *mir.Program
	// CallersOf maps a function to the blocks containing a call or spawn
	// that can invoke it.
	CallersOf map[string][]BlockRef
	// AddrTaken lists functions whose address is taken (possible indirect
	// callees), in discovery order.
	AddrTaken []string
}

// BuildCallGraph scans prog once and returns its call graph.
func BuildCallGraph(prog *mir.Program) *CallGraph {
	cg := &CallGraph{Prog: prog, CallersOf: map[string][]BlockRef{}}
	var indirectSites []BlockRef
	for _, name := range prog.Order {
		f := prog.Funcs[name]
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				switch in.Op {
				case mir.Call:
					if in.Sym != "" {
						cg.CallersOf[in.Sym] = append(cg.CallersOf[in.Sym], BlockRef{name, blk.ID})
					} else {
						indirectSites = append(indirectSites, BlockRef{name, blk.ID})
					}
				case mir.FuncAddr:
					cg.AddrTaken = append(cg.AddrTaken, in.Sym)
				case mir.ThreadCreate:
					cg.CallersOf[in.Sym] = append(cg.CallersOf[in.Sym], BlockRef{name, blk.ID})
				}
			}
		}
	}
	// Indirect calls may reach any address-taken function: add edges from
	// every block containing an indirect call to each such function.
	for _, target := range cg.AddrTaken {
		cg.CallersOf[target] = append(cg.CallersOf[target], indirectSites...)
	}
	return cg
}

// Targets returns the possible callees of an instruction (resolved direct
// calls and spawns, or all address-taken functions for indirect calls).
func (cg *CallGraph) Targets(in *mir.Instr) []string {
	switch in.Op {
	case mir.Call, mir.ThreadCreate:
		if in.Sym != "" {
			return []string{in.Sym}
		}
		return cg.AddrTaken
	}
	return nil
}

// Reachers returns the set of functions from whose body target can be
// reached through the call graph, target itself included.
func (cg *CallGraph) Reachers(target string) map[string]bool {
	out := map[string]bool{target: true}
	work := []string{target}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		for _, site := range cg.CallersOf[fn] {
			if !out[site.Fn] {
				out[site.Fn] = true
				work = append(work, site.Fn)
			}
		}
	}
	return out
}

// Analysis holds the results of the static phase for one goal.
type Analysis struct {
	Prog *mir.Program
	Goal mir.Loc

	// ReachGoalFn marks functions from whose body the goal is reachable
	// (directly or through calls).
	ReachGoalFn map[string]bool

	// reachGoalBlock[f][b] = true if executing from the start of block b of
	// f can reach the goal (through calls included).
	reachGoalBlock map[string][]bool
	// reachRetBlock[f][b] = true if block b can reach a return of f.
	reachRetBlock map[string][]bool

	// Critical maps branch blocks to the outcome (true/else) that any
	// goal-reaching path must take, for branches where only one successor
	// can reach the goal.
	Critical map[BlockRef]bool

	// IntermediateGoals are disjunctive sets of locations: executing at
	// least one member of each set is required to make some critical
	// branch condition true.
	IntermediateGoals [][]mir.Loc

	cg *CallGraph
}

// Analyze runs the static phase for the given goal location.
func Analyze(prog *mir.Program, goal mir.Loc) (*Analysis, error) {
	return AnalyzeWith(BuildCallGraph(prog), goal)
}

// AnalyzeWith is Analyze over a prebuilt call graph, so callers analyzing
// several goals of one program (or sharing the graph with internal/dist)
// scan the program once.
func AnalyzeWith(cg *CallGraph, goal mir.Loc) (*Analysis, error) {
	prog := cg.Prog
	if prog.InstrAt(goal) == nil {
		return nil, fmt.Errorf("cfa: goal %v does not name an instruction", goal)
	}
	a := &Analysis{
		Prog:           prog,
		Goal:           goal,
		reachGoalBlock: map[string][]bool{},
		reachRetBlock:  map[string][]bool{},
		Critical:       map[BlockRef]bool{},
		cg:             cg,
	}
	a.computeReachability()
	a.computeCriticalEdges()
	a.computeIntermediateGoals()
	a.refineGoals()
	return a, nil
}

// refineGoals applies the intermediate-goal derivation transitively: each
// intermediate goal is itself a location the execution must reach, so the
// branches guarding IT yield further reaching-definition goals (e.g. the
// option-flag stores guarding a short-circuit block). Depth and fan-out
// are bounded; this is steering information only, so over-approximation is
// harmless.
func (a *Analysis) refineGoals() {
	const maxDepth = 3
	const maxSets = 24
	seen := map[mir.Loc]bool{}
	queue := []mir.Loc{}
	for _, set := range a.IntermediateGoals {
		queue = append(queue, set...)
	}
	for depth := 0; depth < maxDepth && len(queue) > 0 && len(a.IntermediateGoals) < maxSets; depth++ {
		var next []mir.Loc
		for _, g := range queue {
			if seen[g] {
				continue
			}
			seen[g] = true
			f := a.Prog.Funcs[g.Fn]
			if f == nil {
				continue
			}
			reach := backwardReach(f, func(blk *mir.Block) bool { return blk.ID == g.Block })
			defs := defSites(f)
			for _, blk := range f.Blocks {
				t := blk.Term()
				if t == nil || t.Op != mir.Br {
					continue
				}
				tOK, fOK := reach[t.Then], reach[t.Else]
				var want bool
				switch {
				case tOK && !fOK:
					want = true
				case fOK && !tOK:
					want = false
				default:
					continue
				}
				for _, term := range a.extractConjuncts(f, defs, t.A, want) {
					sites := a.storesSatisfying(term)
					if len(sites) == 0 || len(a.IntermediateGoals) >= maxSets {
						continue
					}
					a.IntermediateGoals = append(a.IntermediateGoals, sites)
					next = append(next, sites...)
				}
			}
		}
		queue = next
	}
	sortLocSets(a.IntermediateGoals)
}

// callTargets returns the possible callees of an instruction (resolved
// direct calls, or all address-taken functions for indirect ones).
func (a *Analysis) callTargets(in *mir.Instr) []string { return a.cg.Targets(in) }

func (a *Analysis) computeReachability() {
	// Pass 1: ReachGoalFn fixpoint. The goal's own function reaches it;
	// any function calling a reaching function reaches it.
	a.ReachGoalFn = a.cg.Reachers(a.Goal.Fn)
	// Pass 2: per-function block sets.
	for _, name := range a.Prog.Order {
		f := a.Prog.Funcs[name]
		a.reachRetBlock[name] = backwardReach(f, func(blk *mir.Block) bool {
			t := blk.Term()
			return t != nil && t.Op == mir.Ret
		})
		a.reachGoalBlock[name] = backwardReach(f, func(blk *mir.Block) bool {
			if name == a.Goal.Fn && blk.ID == a.Goal.Block {
				return true
			}
			for _, in := range blk.Instrs {
				for _, callee := range a.callTargets(in) {
					if a.ReachGoalFn[callee] {
						return true
					}
				}
			}
			return false
		})
	}
}

// backwardReach marks blocks from which a block satisfying seed is
// reachable (including seed blocks themselves).
func backwardReach(f *mir.Func, seed func(*mir.Block) bool) []bool {
	n := len(f.Blocks)
	preds := make([][]int, n)
	for _, blk := range f.Blocks {
		for _, s := range blk.Succs() {
			preds[s] = append(preds[s], blk.ID)
		}
	}
	out := make([]bool, n)
	var work []int
	for _, blk := range f.Blocks {
		if seed(blk) {
			out[blk.ID] = true
			work = append(work, blk.ID)
		}
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		for _, p := range preds[b] {
			if !out[p] {
				out[p] = true
				work = append(work, p)
			}
		}
	}
	return out
}

// BlockMayReachGoal reports whether executing from the start of (fn, block)
// can reach the goal, through calls included.
func (a *Analysis) BlockMayReachGoal(fn string, block int) bool {
	s, ok := a.reachGoalBlock[fn]
	if !ok || block < 0 || block >= len(s) {
		return false
	}
	return s[block]
}

// LocMayReachGoal is the instruction-granular version: execution resuming
// AT loc can reach the goal. A block that contains a goal-reaching call
// only counts if the call is at or after loc.Index (a thread past its
// spawn/call sites cannot go back).
func (a *Analysis) LocMayReachGoal(loc mir.Loc) bool {
	f := a.Prog.Funcs[loc.Fn]
	if f == nil || loc.Block < 0 || loc.Block >= len(f.Blocks) {
		return false
	}
	if loc.Fn == a.Goal.Fn && loc.Block == a.Goal.Block && a.Goal.Index >= loc.Index {
		return true
	}
	blk := f.Blocks[loc.Block]
	for i := loc.Index; i >= 0 && i < len(blk.Instrs); i++ {
		for _, callee := range a.callTargets(blk.Instrs[i]) {
			if a.ReachGoalFn[callee] {
				return true
			}
		}
	}
	for _, s := range blk.Succs() {
		if a.BlockMayReachGoal(loc.Fn, s) {
			return true
		}
	}
	return false
}

// BlockMayReachRet reports whether (fn, block) can reach a return of fn.
func (a *Analysis) BlockMayReachRet(fn string, block int) bool {
	s, ok := a.reachRetBlock[fn]
	if !ok || block < 0 || block >= len(s) {
		return false
	}
	return s[block]
}

// StackMayReachGoal reports whether a thread whose call stack is at the
// given locations (outermost first) can still reach the goal: some frame
// must be able to reach it, possibly after the frames above it return.
func (a *Analysis) StackMayReachGoal(stack []mir.Loc) bool {
	for k := 0; k < len(stack); k++ {
		loc := stack[k]
		if !a.LocMayReachGoal(loc) {
			continue
		}
		// Reaching the goal from frame k requires control to come back
		// down to frame k: every frame above it must reach its return.
		reachable := true
		for j := k + 1; j < len(stack); j++ {
			if !a.BlockMayReachRet(stack[j].Fn, stack[j].Block) {
				reachable = false
				break
			}
		}
		if reachable {
			return true
		}
	}
	return false
}

func (a *Analysis) computeCriticalEdges() {
	// A branch in a goal-reaching function is critical when exactly one of
	// its successors can reach the goal within the function (including via
	// calls into goal-reaching functions). Critical edges steer the search
	// and seed intermediate-goal extraction; they are per-thread guidance
	// toward the goal, so a successor that merely reaches the function's
	// return does not count (the thread pursuing the goal inside this
	// function has lost it). Sound pruning of whole states is done
	// dynamically with the stack-aware StackMayReachGoal instead.
	for _, name := range a.Prog.Order {
		if !a.ReachGoalFn[name] {
			continue
		}
		f := a.Prog.Funcs[name]
		reach := a.reachGoalBlock[name]
		for _, blk := range f.Blocks {
			t := blk.Term()
			if t == nil || t.Op != mir.Br {
				continue
			}
			tOK, fOK := reach[t.Then], reach[t.Else]
			if tOK && !fOK {
				a.Critical[BlockRef{name, blk.ID}] = true
			} else if fOK && !tOK {
				a.Critical[BlockRef{name, blk.ID}] = false
			}
		}
	}
}

// --- Intermediate goals ---------------------------------------------------

// memAtom identifies an abstract memory cell a branch condition reads:
// either a global cell or a local stack slot (alloca register).
type memAtom struct {
	global string // global name when non-empty
	cell   int64  // cell index within the global
	slotFn string // function owning the slot when local
	slot   int    // alloca destination register
}

func (m memAtom) String() string {
	if m.global != "" {
		return fmt.Sprintf("%s[%d]", m.global, m.cell)
	}
	return fmt.Sprintf("%s:slot r%d", m.slotFn, m.slot)
}

// defSites returns the registers' unique defining instructions: MIR
// lowering assigns each virtual register at most once (params aside), so
// def chains are unambiguous.
func defSites(f *mir.Func) map[int]*mir.Instr {
	defs := map[int]*mir.Instr{}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op.WritesDst() {
				if _, dup := defs[in.Dst]; !dup {
					defs[in.Dst] = in
				}
			}
		}
	}
	return defs
}

// atomOf resolves the address operand of a Load to a memory atom, when the
// address has a statically recognizable shape.
func (a *Analysis) atomOf(f *mir.Func, defs map[int]*mir.Instr, addr mir.Operand, off mir.Operand) (memAtom, bool) {
	if addr.Kind != mir.Reg {
		return memAtom{}, false
	}
	cell := int64(0)
	if off.Kind == mir.Imm {
		cell = off.Val
	} else {
		return memAtom{}, false
	}
	def := defs[addr.R]
	if def == nil {
		return memAtom{}, false
	}
	switch def.Op {
	case mir.GlobalAddr:
		return memAtom{global: def.Sym, cell: cell}, true
	case mir.Alloca:
		if cell == 0 {
			return memAtom{slotFn: f.Name, slot: def.Dst}, true
		}
	}
	return memAtom{}, false
}

// condTerm is a leaf comparison extracted from a branch condition:
// atom REL const.
type condTerm struct {
	atom memAtom
	rel  expr.Op
	k    int64
}

// extractConjuncts decomposes the register condition of a critical branch
// into comparisons over memory atoms. It follows the SSA-ish def chain
// through Bin/Un/Load. Only conjunction-shaped conditions decompose; other
// shapes yield nothing (no intermediate goals — the dynamic phase still
// works, just with less guidance).
func (a *Analysis) extractConjuncts(f *mir.Func, defs map[int]*mir.Instr, cond mir.Operand, want bool) []condTerm {
	if cond.Kind != mir.Reg || !want {
		// A required-false branch means the negation must hold; decomposing
		// negations of conjunctions (disjunctions) would need disjunctive
		// goal sets per term, which we skip (matches the paper's "may lose
		// precision" caveat).
		return nil
	}
	var out []condTerm
	visited := map[int]bool{}
	var walk func(r int)
	walk = func(r int) {
		if visited[r] {
			return
		}
		visited[r] = true
		def := defs[r]
		if def == nil {
			return
		}
		switch def.Op {
		case mir.Bin:
			op := expr.Op(def.ALU)
			switch op {
			case expr.OpLAnd, expr.OpAnd:
				if def.A.Kind == mir.Reg {
					walk(def.A.R)
				}
				if def.B.Kind == mir.Reg {
					walk(def.B.R)
				}
			case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
				// atom REL const or const REL atom
				if def.A.Kind == mir.Reg && def.B.Kind == mir.Imm {
					if ld := defs[def.A.R]; ld != nil && ld.Op == mir.Load {
						if atom, ok := a.atomOf(f, defs, ld.A, ld.B); ok {
							out = append(out, condTerm{atom: atom, rel: op, k: def.B.Val})
						}
					}
					// Also recurse into the compared register: comparisons
					// of a truth-valued subexpression against 0.
					if def.B.Val == 0 && (op == expr.OpNe || op == expr.OpGt) {
						walk(def.A.R)
					}
				}
			}
		case mir.Load:
			// Bare load used as truth value: atom != 0.
			if atom, ok := a.atomOf(f, defs, def.A, def.B); ok {
				out = append(out, condTerm{atom: atom, rel: expr.OpNe, k: 0})
				// Short-circuit lowering routes compound conditions through
				// a stack slot: recurse into the non-constant reaching
				// stores of the slot (their conjuncts must hold for the
				// slot to be non-zero).
				if atom.global == "" {
					for _, blk := range f.Blocks {
						for _, in := range blk.Instrs {
							if in.Op != mir.Store || in.C.Kind != mir.Reg {
								continue
							}
							sAtom, ok := a.atomOf(f, defs, in.A, in.B)
							if !ok || sAtom != atom {
								continue
							}
							walk(in.C.R)
						}
					}
				}
			}
		}
	}
	walk(cond.R)
	return out
}

// isTruthValuedOp reports whether the operator always yields 0 or 1.
func isTruthValuedOp(op expr.Op) bool {
	switch op {
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe,
		expr.OpLAnd, expr.OpLOr, expr.OpNot:
		return true
	}
	return false
}

func relHolds(rel expr.Op, v, k int64) bool {
	switch rel {
	case expr.OpEq:
		return v == k
	case expr.OpNe:
		return v != k
	case expr.OpLt:
		return v < k
	case expr.OpLe:
		return v <= k
	case expr.OpGt:
		return v > k
	case expr.OpGe:
		return v >= k
	}
	return false
}

// computeIntermediateGoals finds, for every critical branch condition
// conjunct, the store instructions (reaching definitions) that give it the
// required value; their blocks become disjunctive intermediate-goal sets.
func (a *Analysis) computeIntermediateGoals() {
	for ref, want := range a.Critical {
		f := a.Prog.Funcs[ref.Fn]
		defs := defSites(f)
		t := f.Blocks[ref.Block].Term()
		terms := a.extractConjuncts(f, defs, t.A, want)
		for _, term := range terms {
			sites := a.storesSatisfying(term)
			if len(sites) > 0 {
				a.IntermediateGoals = append(a.IntermediateGoals, sites)
			}
		}
	}
	// Stable order for determinism (map iteration above).
	sortLocSets(a.IntermediateGoals)
}

// storesSatisfying scans the program for stores of constants to the term's
// atom that satisfy the comparison. For global atoms the scan is
// program-wide; for slots it is function-local.
func (a *Analysis) storesSatisfying(term condTerm) []mir.Loc {
	var out []mir.Loc
	scanFn := func(name string) {
		f := a.Prog.Funcs[name]
		defs := defSites(f)
		for _, blk := range f.Blocks {
			for idx, in := range blk.Instrs {
				if in.Op != mir.Store {
					continue
				}
				atom, ok := a.atomOf(f, defs, in.A, in.B)
				if !ok || atom != term.atom {
					continue
				}
				// A constant store (immediate or Const register) qualifies
				// when it satisfies the relation. A store of a computed
				// truth value (comparison / logical op) qualifies for
				// truthiness relations: it CAN satisfy them, and its block
				// must execute for the critical edge to be taken — the
				// short-circuit lowering pattern.
				var v int64
				hasConst := false
				switch {
				case in.C.Kind == mir.Imm:
					v, hasConst = in.C.Val, true
				case in.C.Kind == mir.Reg:
					d := defs[in.C.R]
					if d != nil && d.Op == mir.Const {
						v, hasConst = d.Imm, true
					} else if d != nil && d.Op == mir.Bin && isTruthValuedOp(expr.Op(d.ALU)) &&
						(term.rel == expr.OpNe || term.rel == expr.OpGt) && term.k == 0 {
						out = append(out, mir.Loc{Fn: name, Block: blk.ID, Index: idx})
						continue
					} else {
						continue
					}
				default:
					continue
				}
				if hasConst && relHolds(term.rel, v, term.k) {
					out = append(out, mir.Loc{Fn: name, Block: blk.ID, Index: idx})
				}
			}
		}
	}
	if term.atom.global != "" {
		for _, name := range a.Prog.Order {
			scanFn(name)
		}
	} else {
		scanFn(term.atom.slotFn)
	}
	return out
}

func sortLocSets(sets [][]mir.Loc) {
	less := func(a, b mir.Loc) bool {
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Index < b.Index
	}
	for _, s := range sets {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && less(s[j], s[j-1]); j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	}
	for i := 1; i < len(sets); i++ {
		for j := i; j > 0 && len(sets[j]) > 0 && len(sets[j-1]) > 0 && less(sets[j][0], sets[j-1][0]); j-- {
			sets[j], sets[j-1] = sets[j-1], sets[j]
		}
	}
}
