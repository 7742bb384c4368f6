package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"esd/internal/apps"
	"esd/internal/mir"
)

// --- Differential oracle: the tables against a plain reference ------------

// refMetric is an independent reference for one metric's tables. It
// relaxes per-instruction successor edges Bellman-Ford style until nothing
// changes, and resolves through costs and goal entry costs with
// round-robin fixpoints over the whole program, recomputing every
// function each round. Tables are indexed [block][instruction].
type refMetric struct {
	prog      *mir.Program
	base      func(mir.Opcode) int64
	addrTaken []string
	through   map[string]int64
	retDist   map[string][][]int64
}

func newRefMetric(prog *mir.Program, base func(mir.Opcode) int64) *refMetric {
	r := &refMetric{prog: prog, base: base, through: map[string]int64{}, retDist: map[string][][]int64{}}
	for _, name := range prog.Order {
		for _, blk := range prog.Funcs[name].Blocks {
			for _, in := range blk.Instrs {
				if in.Op == mir.FuncAddr {
					r.addrTaken = append(r.addrTaken, in.Sym)
				}
			}
		}
		r.through[name] = Infinite
	}
	for changed := true; changed; {
		changed = false
		for _, name := range prog.Order {
			if d := r.solve(name, nil); d[0][0] < r.through[name] {
				r.through[name] = d[0][0]
				changed = true
			}
		}
	}
	for _, name := range prog.Order {
		r.retDist[name] = r.solve(name, nil)
	}
	return r
}

// targets lists the functions a call or spawn can enter.
func (r *refMetric) targets(in *mir.Instr) []string {
	if in.Sym == "" {
		return r.addrTaken
	}
	return []string{in.Sym}
}

// weight is the cost of executing in and arriving at its successor: a
// call also completes its cheapest callee.
func (r *refMetric) weight(in *mir.Instr) int64 {
	if in.Op != mir.Call {
		return r.base(in.Op)
	}
	best := Infinite
	for _, t := range r.targets(in) {
		best = min(best, r.through[t])
	}
	return add(r.base(in.Op), best)
}

// solve returns fn's cheapest cost from every instruction to an exit:
// executing a Ret when seed is nil, else reaching an instruction whose
// seed(in, loc) is finite, at that cost.
func (r *refMetric) solve(fn string, seed func(*mir.Instr, mir.Loc) int64) [][]int64 {
	f := r.prog.Funcs[fn]
	d := make([][]int64, len(f.Blocks))
	for b, blk := range f.Blocks {
		d[b] = make([]int64, len(blk.Instrs))
		for i := range d[b] {
			d[b][i] = Infinite
		}
	}
	for changed := true; changed; {
		changed = false
		// Costs flow from successors to predecessors, so sweeping
		// backward settles straight-line code in one pass.
		for b := len(f.Blocks) - 1; b >= 0; b-- {
			for i := len(f.Blocks[b].Instrs) - 1; i >= 0; i-- {
				in := f.Blocks[b].Instrs[i]
				best := Infinite
				switch {
				case seed != nil:
					best = seed(in, mir.Loc{Fn: fn, Block: b, Index: i})
				case in.Op == mir.Ret:
					best = r.base(mir.Ret)
				}
				var succs [2]int64
				n := 0
				switch in.Op {
				case mir.Ret, mir.Abort:
				case mir.Jmp:
					succs[0], n = d[in.Then][0], 1
				case mir.Br:
					succs[0], succs[1], n = d[in.Then][0], d[in.Else][0], 2
				default:
					succs[0], n = d[b][i+1], 1
				}
				for _, s := range succs[:n] {
					best = min(best, add(r.weight(in), s))
				}
				if best < d[b][i] {
					d[b][i] = best
					changed = true
				}
			}
		}
	}
	return d
}

// toGoal returns the goal's tables for the functions that can reach the
// goal's function through calls and spawns (nil for the rest), or nil when
// goal names no instruction.
func (r *refMetric) toGoal(goal mir.Loc) map[string][][]int64 {
	if r.prog.InstrAt(goal) == nil {
		return nil
	}
	reach := map[string]bool{goal.Fn: true}
	for grew := true; grew; {
		grew = false
		for _, name := range r.prog.Order {
			for _, blk := range r.prog.Funcs[name].Blocks {
				for _, in := range blk.Instrs {
					if in.Op != mir.Call && in.Op != mir.ThreadCreate {
						continue
					}
					for _, t := range r.targets(in) {
						if reach[t] && !reach[name] {
							reach[name] = true
							grew = true
						}
					}
				}
			}
		}
	}
	entry := map[string]int64{}
	for fn := range reach {
		entry[fn] = Infinite
	}
	seed := func(in *mir.Instr, at mir.Loc) int64 {
		if at == goal {
			return 0
		}
		best := Infinite
		if in.Op == mir.Call || in.Op == mir.ThreadCreate {
			for _, t := range r.targets(in) {
				if e, ok := entry[t]; ok {
					best = min(best, add(r.base(in.Op), e))
				}
			}
		}
		return best
	}
	tables := map[string][][]int64{}
	for changed := true; changed; {
		changed = false
		for _, name := range r.prog.Order {
			if !reach[name] {
				continue
			}
			tables[name] = r.solve(name, seed)
			if d := tables[name][0][0]; d < entry[name] {
				entry[name] = d
				changed = true
			}
		}
	}
	return tables
}

// checkAgainstReference compares c with the reference under both metrics:
// through costs, the return distance of every instruction, and, for each
// goal, the distance of every instruction (a one-frame stack).
func checkAgainstReference(t *testing.T, prog *mir.Program, c *Calculator, goals []mir.Loc) {
	t.Helper()
	type view struct {
		name     string
		ref      *refMetric
		through  func(string) int64
		toReturn func(mir.Loc) int64
		distance func([]mir.Loc, mir.Loc) int64
	}
	views := []view{
		{"steps", newRefMetric(prog, func(mir.Opcode) int64 { return 1 }),
			c.Through, c.DistToReturn, c.StateDistance},
		{"sync", newRefMetric(prog, func(op mir.Opcode) int64 {
			if op.IsSync() {
				return 1
			}
			return 0
		}), c.SyncThrough, c.SyncDistToReturn, c.SyncDistance},
	}
	locs := allLocs(prog)
	for _, v := range views {
		for _, fn := range prog.Order {
			if got, want := v.through(fn), v.ref.through[fn]; got != want {
				t.Fatalf("%s: %s through(%s) = %d, reference %d\n%s", prog.Name, v.name, fn, got, want, prog)
			}
		}
		for _, l := range locs {
			if got, want := v.toReturn(l), v.ref.retDist[l.Fn][l.Block][l.Index]; got != want {
				t.Fatalf("%s: %s return distance at %v = %d, reference %d\n%s", prog.Name, v.name, l, got, want, prog)
			}
		}
		stack := make([]mir.Loc, 1)
		for _, g := range goals {
			tables := v.ref.toGoal(g)
			for _, l := range locs {
				want := Infinite
				if tg := tables[l.Fn]; tg != nil {
					want = tg[l.Block][l.Index]
				}
				stack[0] = l
				if got := v.distance(stack, g); got != want {
					t.Fatalf("%s: %s distance %v -> %v = %d, reference %d\n%s", prog.Name, v.name, l, g, got, want, prog)
				}
			}
		}
	}
}

// genCyclicProgram is genProgram without the DAG restriction: a call or
// spawn may target any function (itself, a later one, or a spawned one),
// some calls are indirect through an address-taken function, and blocks
// may end in an abort, so self and mutual recursion and functions that
// never return all occur.
func genCyclicProgram(rng *rand.Rand) *mir.Program {
	p := mir.NewProgram(fmt.Sprintf("cyclic%d", rng.Int63()))
	p.AddGlobal(&mir.Global{Name: "m", Size: 4})
	nFns := 2 + rng.Intn(4)
	names := make([]string, nFns+1)
	for i := range nFns {
		names[i] = fmt.Sprintf("f%d", i)
	}
	names[nFns] = "main"
	pick := func() string { return names[rng.Intn(len(names))] }
	for _, name := range names {
		b := mir.NewFuncBuilder(name)
		blocks := []*mir.Block{b.Current()}
		for j := 1 + rng.Intn(3); j > 1; j-- {
			blocks = append(blocks, b.NewBlock(fmt.Sprintf("b%d", len(blocks))))
		}
		for _, blk := range blocks {
			b.SetBlock(blk)
			for n := rng.Intn(4); n > 0; n-- {
				switch rng.Intn(7) {
				case 0:
					b.EmitConst(int64(rng.Intn(100)))
				case 1:
					r := b.EmitGlobalAddr("m")
					b.Emit(&mir.Instr{Op: mir.MutexLock, Dst: -1, A: mir.R(r)})
				case 2:
					r := b.EmitGlobalAddr("m")
					b.Emit(&mir.Instr{Op: mir.MutexUnlock, Dst: -1, A: mir.R(r)})
				case 3:
					b.Emit(&mir.Instr{Op: mir.Yield, Dst: -1})
				case 4:
					b.EmitCall(pick())
				case 5:
					b.Emit(&mir.Instr{Op: mir.ThreadCreate, Dst: b.NewReg(), Sym: pick(), A: mir.I(0)})
				case 6:
					fp := b.NewReg()
					b.Emit(&mir.Instr{Op: mir.FuncAddr, Dst: fp, Sym: pick()})
					b.Emit(&mir.Instr{Op: mir.Call, Dst: b.NewReg(), A: mir.R(fp)})
				}
			}
			switch rng.Intn(5) {
			case 0, 1:
				b.EmitRet(mir.I(0))
			case 2:
				b.EmitJmp(blocks[rng.Intn(len(blocks))])
			case 3:
				c := b.EmitConst(1)
				b.EmitBr(mir.R(c), blocks[rng.Intn(len(blocks))], blocks[rng.Intn(len(blocks))])
			case 4:
				b.Emit(&mir.Instr{Op: mir.Abort, Dst: -1, Sym: "gen"})
			}
		}
		p.AddFunc(b.F)
	}
	if err := p.Verify(); err != nil {
		panic(err)
	}
	return p
}

func TestTablesMatchReference(t *testing.T) {
	t.Run("apps", func(t *testing.T) {
		for _, a := range apps.All() {
			prog, err := a.Program()
			if err != nil {
				t.Fatal(err)
			}
			// Every instruction is a goal, plus one in an unknown function
			// and one out of range.
			goals := append(allLocs(prog), mir.Loc{Fn: "nosuch"}, mir.Loc{Fn: "main", Block: 99})
			checkAgainstReference(t, prog, NewCalculator(prog), goals)
		}
	})
	t.Run("bpf", func(t *testing.T) {
		cg, goals := bpfProgram(t, 1<<8)
		checkAgainstReference(t, cg.Prog, NewCalculatorWith(cg), goals)
	})
	t.Run("cyclic", func(t *testing.T) {
		// The reference's through costs and call graph tell which shapes
		// the seeds covered; each must occur.
		var selfRec, mutualRec, calledAndSpawned, neverReturns int
		for seed := int64(1); seed <= 50; seed++ {
			prog := genCyclicProgram(rand.New(rand.NewSource(seed)))
			checkAgainstReference(t, prog, NewCalculator(prog), allLocs(prog))
			calls, spawned := map[[2]string]bool{}, map[string]bool{}
			for _, name := range prog.Order {
				for _, blk := range prog.Funcs[name].Blocks {
					for _, in := range blk.Instrs {
						switch {
						case in.Op == mir.Call && in.Sym != "":
							calls[[2]string{name, in.Sym}] = true
						case in.Op == mir.ThreadCreate:
							spawned[in.Sym] = true
						}
					}
				}
			}
			ref := newRefMetric(prog, func(mir.Opcode) int64 { return 1 })
			for e := range calls {
				switch {
				case e[0] == e[1]:
					selfRec++
				case calls[[2]string{e[1], e[0]}]:
					mutualRec++
				}
				if spawned[e[1]] {
					calledAndSpawned++
				}
			}
			for _, th := range ref.through {
				if th == Infinite {
					neverReturns++
				}
			}
		}
		if selfRec == 0 || mutualRec == 0 || calledAndSpawned == 0 || neverReturns == 0 {
			t.Errorf("seeds covered self recursion %d, mutual recursion %d, called spawn targets %d, non-returning functions %d times; want each at least once",
				selfRec, mutualRec, calledAndSpawned, neverReturns)
		}
	})
}
