package dist

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"esd/internal/bpf"
	"esd/internal/cfa"
	"esd/internal/lang"
	"esd/internal/mir"
)

// buildLinear constructs the hand-built fixture used by the unit tests:
//
//	func add(a, b):      b0: r2 = a+b; ret r2                 (through = 2)
//	func spin():         b0: jmp b0                           (never returns)
//	func boom():         b0: abort                            (never returns)
//	func main():         b0: const; call add; jmp b1
//	                     b1: const; ret
func buildLinear() *mir.Program {
	p := mir.NewProgram("linear")

	b := mir.NewFuncBuilder("add", "a", "b")
	r := b.EmitBin(0, mir.R(0), mir.R(1))
	b.EmitRet(mir.R(r))
	p.AddFunc(b.F)

	b = mir.NewFuncBuilder("spin")
	b.EmitJmp(b.Current())
	p.AddFunc(b.F)

	b = mir.NewFuncBuilder("boom")
	b.Emit(&mir.Instr{Op: mir.Abort, Dst: -1, Sym: "boom"})
	p.AddFunc(b.F)

	b = mir.NewFuncBuilder("main")
	b.EmitConst(1)
	b.EmitCall("add", mir.I(1), mir.I(2))
	entry := b.Current()
	exit := b.NewBlock("exit")
	b.SetBlock(entry)
	b.EmitJmp(exit)
	b.SetBlock(exit)
	c := b.EmitConst(3)
	b.EmitRet(mir.R(c))
	p.AddFunc(b.F)

	if err := p.Verify(); err != nil {
		panic(err)
	}
	return p
}

func loc(fn string, block, index int) mir.Loc { return mir.Loc{Fn: fn, Block: block, Index: index} }

func TestIntraFunctionDistances(t *testing.T) {
	c := NewCalculator(buildLinear())
	goal := loc("main", 1, 0) // the const in the exit block

	// Walking backward from the goal: jmp=1, call=1+through(add)+1=4,
	// const=5. At the goal itself the distance is zero.
	cases := []struct {
		at   mir.Loc
		want int64
	}{
		{loc("main", 1, 0), 0},
		{loc("main", 0, 2), 1},
		{loc("main", 0, 1), 4},
		{loc("main", 0, 0), 5},
		{loc("main", 1, 1), Infinite}, // past the goal with no loop back
	}
	for _, tc := range cases {
		if got := c.StateDistance([]mir.Loc{tc.at}, goal); got != tc.want {
			t.Errorf("dist(%v -> %v) = %d, want %d", tc.at, goal, got, tc.want)
		}
	}
}

func TestFunctionSummaries(t *testing.T) {
	c := NewCalculator(buildLinear())
	if got := c.Through("add"); got != 2 {
		t.Errorf("through(add) = %d, want 2", got)
	}
	for _, fn := range []string{"spin", "boom"} {
		if got := c.Through(fn); got != Infinite {
			t.Errorf("through(%s) = %d, want Infinite", fn, got)
		}
	}
	// main: call(1+2) + jmp(1) + const(1) + ret(1) = 6 from entry+1.
	if got := c.DistToReturn(loc("main", 0, 1)); got != 6 {
		t.Errorf("distToRet(main@b0.1) = %d, want 6", got)
	}
	if got := c.DistToReturn(loc("spin", 0, 0)); got != Infinite {
		t.Errorf("distToRet(spin) = %d, want Infinite", got)
	}
	if got := c.Through("nosuch"); got != Infinite {
		t.Errorf("through(nosuch) = %d, want Infinite", got)
	}
}

func TestInterproceduralEntry(t *testing.T) {
	c := NewCalculator(buildLinear())
	// Goal inside add (its ret): from main entry the cheapest path executes
	// const(1), enters the call(1), executes add's bin(1) -> 3.
	goal := loc("add", 0, 1)
	if got := c.StateDistance([]mir.Loc{loc("main", 0, 0)}, goal); got != 3 {
		t.Errorf("entry distance = %d, want 3", got)
	}
	// From the call site itself: enter(1) + bin(1) = 2.
	if got := c.StateDistance([]mir.Loc{loc("main", 0, 1)}, goal); got != 2 {
		t.Errorf("call-site distance = %d, want 2", got)
	}
}

func TestStackAwareComposition(t *testing.T) {
	c := NewCalculator(buildLinear())
	// Thread is inside add (at its ret), caller resumes at main's jmp. The
	// goal is main's ret: add cannot reach it locally (nobody calls main),
	// so Algorithm 1 must unwind: ret(1) + jmp(1) + const(1) = 3.
	stack := []mir.Loc{loc("main", 0, 2), loc("add", 0, 1)}
	goal := loc("main", 1, 1)
	if got := c.StateDistance(stack, goal); got != 3 {
		t.Errorf("composed distance = %d, want 3", got)
	}
	// If the innermost frame can reach the goal directly, unwinding must
	// not be forced: goal is add's ret, distance 0.
	if got := c.StateDistance(stack, loc("add", 0, 1)); got != 0 {
		t.Errorf("innermost-at-goal = %d, want 0", got)
	}
	// A frame that can never return cuts off outer frames entirely.
	stuck := []mir.Loc{loc("main", 0, 2), loc("spin", 0, 0)}
	if got := c.StateDistance(stuck, goal); got != Infinite {
		t.Errorf("stuck-below-spin = %d, want Infinite", got)
	}
	// Empty and malformed stacks answer Infinite rather than panicking.
	if got := c.StateDistance(nil, goal); got != Infinite {
		t.Errorf("empty stack = %d, want Infinite", got)
	}
	if got := c.StateDistance([]mir.Loc{loc("nosuch", 0, 0)}, goal); got != Infinite {
		t.Errorf("unknown frame = %d, want Infinite", got)
	}
	if got := c.StateDistance([]mir.Loc{loc("main", 9, 9)}, goal); got != Infinite {
		t.Errorf("out-of-range frame = %d, want Infinite", got)
	}
}

func TestNonReturningCallBlocksPath(t *testing.T) {
	p := mir.NewProgram("blocked")
	b := mir.NewFuncBuilder("boom")
	b.Emit(&mir.Instr{Op: mir.Abort, Dst: -1, Sym: "boom"})
	p.AddFunc(b.F)
	b = mir.NewFuncBuilder("main")
	b.EmitCall("boom")
	target := b.EmitConst(7)
	b.EmitRet(mir.R(target))
	p.AddFunc(b.F)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	c := NewCalculator(p)
	// The const after the call is unreachable: stepping over boom is
	// impossible and boom never reaches the goal.
	if got := c.StateDistance([]mir.Loc{loc("main", 0, 0)}, loc("main", 0, 1)); got != Infinite {
		t.Errorf("goal behind non-returning call = %d, want Infinite", got)
	}
	// The abort itself is reachable: call(1) + at goal inside boom.
	if got := c.StateDistance([]mir.Loc{loc("main", 0, 0)}, loc("boom", 0, 0)); got != 1 {
		t.Errorf("distance into boom = %d, want 1", got)
	}
}

func TestThreadSpawnCountsAsEntry(t *testing.T) {
	prog := lang.MustCompile("spawn.c", `
int g;
int worker(int arg) {
	g = arg;
	return 0;
}
int main() {
	int t = thread_create(worker, 5);
	thread_join(t);
	return g;
}`)
	c := NewCalculator(prog)
	goal := loc("worker", 0, 0)
	d := c.StateDistance([]mir.Loc{loc("main", 0, 0)}, goal)
	if d >= Infinite {
		t.Fatalf("spawn site gives no proximity to the spawned body: %d", d)
	}
	// The spawner itself must not pay the worker's cost on its own return
	// path: ThreadCreate is a unit-cost step.
	if r := c.DistToReturn(loc("main", 0, 0)); r >= Infinite {
		t.Fatalf("spawner return path infinite: %d", r)
	}
}

func TestIndirectCallUsesAddressTaken(t *testing.T) {
	p := mir.NewProgram("indirect")
	b := mir.NewFuncBuilder("fa")
	b.EmitRet(mir.I(0))
	p.AddFunc(b.F)
	b = mir.NewFuncBuilder("fb")
	b.EmitConst(1)
	b.EmitRet(mir.I(0))
	p.AddFunc(b.F)
	b = mir.NewFuncBuilder("main")
	fp := b.NewReg()
	b.Emit(&mir.Instr{Op: mir.FuncAddr, Dst: fp, Sym: "fb"})
	d := b.NewReg()
	b.Emit(&mir.Instr{Op: mir.Call, Dst: d, Sym: "", A: mir.R(fp)})
	b.EmitRet(mir.I(0))
	p.AddFunc(b.F)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	c := NewCalculator(p)
	// fb is address-taken, so the indirect call can enter it: faddr(1) +
	// enter(1) = 2 to fb's const.
	if got := c.StateDistance([]mir.Loc{loc("main", 0, 0)}, loc("fb", 0, 0)); got != 2 {
		t.Errorf("indirect entry = %d, want 2", got)
	}
	// fa is never address-taken and never called: unreachable.
	if got := c.StateDistance([]mir.Loc{loc("main", 0, 0)}, loc("fa", 0, 0)); got != Infinite {
		t.Errorf("uncalled fn = %d, want Infinite", got)
	}
}

func TestRecursionConverges(t *testing.T) {
	prog := lang.MustCompile("rec.c", `
int countdown(int n) {
	if (n <= 0) return 0;
	return countdown(n - 1);
}
int main() {
	return countdown(5);
}`)
	c := NewCalculator(prog)
	if th := c.Through("countdown"); th >= Infinite {
		t.Fatalf("through(countdown) = %d; recursion did not converge", th)
	}
	// Recursive self-entry must still reach the base-case return.
	goal := findOp(t, prog, "countdown", mir.Ret)
	if d := c.StateDistance([]mir.Loc{loc("main", 0, 0)}, goal); d >= Infinite {
		t.Fatalf("goal in recursive fn unreachable: %d", d)
	}
}

// findOp returns the first location of op in fn.
func findOp(t *testing.T, p *mir.Program, fn string, op mir.Opcode) mir.Loc {
	t.Helper()
	f := p.Funcs[fn]
	for _, blk := range f.Blocks {
		for i, in := range blk.Instrs {
			if in.Op == op {
				return mir.Loc{Fn: fn, Block: blk.ID, Index: i}
			}
		}
	}
	t.Fatalf("no %v in %s", op, fn)
	return mir.Loc{}
}

func TestConcurrentQueriesAgree(t *testing.T) {
	prog := lang.MustCompile("conc.c", propertySources[0].src)
	c := NewCalculator(prog)
	goals := allLocs(prog)
	start := []mir.Loc{loc("main", 0, 0)}
	want := make([]int64, len(goals))
	for i, g := range goals {
		want[i] = c.StateDistance(start, g)
	}
	// A fresh calculator queried from many goroutines (cold caches, every
	// goal contended) must agree with the sequential answers.
	c2 := NewCalculator(prog)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i, g := range goals {
					if got := c2.StateDistance(start, g); got != want[i] {
						select {
						case errs <- fmt.Sprintf("goal %v: got %d want %d", g, got, want[i]):
						default:
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if c2.CachedGoals() != len(goals) {
		t.Errorf("cached %d goals, want %d", c2.CachedGoals(), len(goals))
	}
}

// --- Property test: StateDistance == brute-force whole-program BFS --------

type propertySource struct {
	name string
	src  string
}

// propertySources are small single-threaded MiniC programs. On them the
// heuristic is exact: every branch is statically feasible, so the cheapest
// CFG path equals the cheapest instruction count of the concrete
// interpreter-level BFS below.
var propertySources = []propertySource{
	{"branches", `
int pick(int a, int b) {
	if (a < b) return a;
	return b;
}
int helper(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) acc += i;
	return acc;
}
int main() {
	int x = input("x");
	int y = pick(x, 3);
	if (x == 7) {
		y = helper(x);
	}
	return y;
}`},
	{"nested", `
int leaf(int v) { return v + 1; }
int mid(int v) {
	if (v > 10) return leaf(v);
	return leaf(v) + leaf(v + 2);
}
int top(int v) {
	int r = mid(v);
	while (r > 0) r = r - 3;
	return r;
}
int main() {
	int x = input("x");
	return top(x);
}`},
	{"abortpath", `
int die(int code) {
	abort("fatal");
	return code;
}
int checked(int v) {
	if (v < 0) {
		die(v);
	}
	return v * 2;
}
int main() {
	int x = input("x");
	int y = checked(x);
	if (y == 4) {
		y = checked(y + 1);
	}
	return y;
}`},
	{"recursion", `
int fact(int n) {
	if (n <= 1) return 1;
	return n * fact(n - 1);
}
int main() {
	int x = input("x");
	if (x > 3) return fact(x);
	return x;
}`},
}

// allLocs enumerates every instruction location of the program.
func allLocs(p *mir.Program) []mir.Loc {
	var out []mir.Loc
	for _, name := range p.Order {
		f := p.Funcs[name]
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				out = append(out, mir.Loc{Fn: name, Block: blk.ID, Index: i})
			}
		}
	}
	return out
}

// bfsDistance explores the data-free configuration space (call stacks of
// locations, each frame naming the next instruction it executes) breadth
// first and returns the minimum number of executed instructions before the
// innermost location equals goal, or Infinite. It is the executable
// specification StateDistance is checked against.
func bfsDistance(p *mir.Program, start []mir.Loc, goal mir.Loc, maxDepth int) int64 {
	type node struct {
		stack []mir.Loc
		d     int64
	}
	key := func(s []mir.Loc) string {
		var b strings.Builder
		for _, l := range s {
			fmt.Fprintf(&b, "%s/%d/%d;", l.Fn, l.Block, l.Index)
		}
		return b.String()
	}
	push := func(s []mir.Loc, top mir.Loc) []mir.Loc {
		n := append(append([]mir.Loc(nil), s...), top)
		return n
	}
	seen := map[string]bool{key(start): true}
	queue := []node{{stack: start, d: 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		top := cur.stack[len(cur.stack)-1]
		if top == goal {
			return cur.d
		}
		in := p.InstrAt(top)
		if in == nil {
			continue
		}
		var succs [][]mir.Loc
		switch in.Op {
		case mir.Br:
			succs = append(succs,
				push(cur.stack[:len(cur.stack)-1], mir.Loc{Fn: top.Fn, Block: in.Then}),
				push(cur.stack[:len(cur.stack)-1], mir.Loc{Fn: top.Fn, Block: in.Else}))
		case mir.Jmp:
			succs = append(succs, push(cur.stack[:len(cur.stack)-1], mir.Loc{Fn: top.Fn, Block: in.Then}))
		case mir.Ret:
			if len(cur.stack) > 1 {
				succs = append(succs, append([]mir.Loc(nil), cur.stack[:len(cur.stack)-1]...))
			}
		case mir.Abort:
			// no successors
		case mir.Call:
			if in.Sym != "" && len(cur.stack) < maxDepth {
				resumed := append([]mir.Loc(nil), cur.stack[:len(cur.stack)-1]...)
				resumed = append(resumed, mir.Loc{Fn: top.Fn, Block: top.Block, Index: top.Index + 1})
				succs = append(succs, push(resumed, mir.Loc{Fn: in.Sym}))
			}
		default:
			succs = append(succs, push(cur.stack[:len(cur.stack)-1],
				mir.Loc{Fn: top.Fn, Block: top.Block, Index: top.Index + 1}))
		}
		for _, s := range succs {
			if k := key(s); !seen[k] {
				seen[k] = true
				queue = append(queue, node{stack: s, d: cur.d + 1})
			}
		}
	}
	return Infinite
}

// collectConfigs gathers up to limit reachable configurations (call stacks)
// from start, to exercise StateDistance from mid-execution stacks too.
func collectConfigs(p *mir.Program, start []mir.Loc, maxDepth, limit int) [][]mir.Loc {
	var out [][]mir.Loc
	seen := map[string]bool{}
	var queue [][]mir.Loc
	queue = append(queue, start)
	key := func(s []mir.Loc) string {
		var b strings.Builder
		for _, l := range s {
			fmt.Fprintf(&b, "%s/%d/%d;", l.Fn, l.Block, l.Index)
		}
		return b.String()
	}
	seen[key(start)] = true
	for len(queue) > 0 && len(out) < limit {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		top := cur[len(cur)-1]
		in := p.InstrAt(top)
		if in == nil {
			continue
		}
		var succs [][]mir.Loc
		base := append([]mir.Loc(nil), cur[:len(cur)-1]...)
		switch in.Op {
		case mir.Br:
			succs = append(succs,
				append(append([]mir.Loc(nil), base...), mir.Loc{Fn: top.Fn, Block: in.Then}),
				append(append([]mir.Loc(nil), base...), mir.Loc{Fn: top.Fn, Block: in.Else}))
		case mir.Jmp:
			succs = append(succs, append(append([]mir.Loc(nil), base...), mir.Loc{Fn: top.Fn, Block: in.Then}))
		case mir.Ret:
			if len(cur) > 1 {
				succs = append(succs, base)
			}
		case mir.Abort:
		case mir.Call:
			if in.Sym != "" && len(cur) < maxDepth {
				resumed := append(base, mir.Loc{Fn: top.Fn, Block: top.Block, Index: top.Index + 1})
				succs = append(succs, append(append([]mir.Loc(nil), resumed...), mir.Loc{Fn: in.Sym}))
			}
		default:
			succs = append(succs, append(append([]mir.Loc(nil), base...),
				mir.Loc{Fn: top.Fn, Block: top.Block, Index: top.Index + 1}))
		}
		for _, s := range succs {
			if k := key(s); !seen[k] {
				seen[k] = true
				queue = append(queue, s)
			}
		}
	}
	return out
}

func TestStateDistanceMatchesBruteForce(t *testing.T) {
	const maxDepth = 8
	for _, ps := range propertySources {
		t.Run(ps.name, func(t *testing.T) {
			prog := lang.MustCompile(ps.name+".c", ps.src)
			if err := prog.Verify(); err != nil {
				t.Fatal(err)
			}
			c := NewCalculator(prog)
			goals := allLocs(prog)
			start := []mir.Loc{{Fn: "main"}}
			configs := collectConfigs(prog, start, maxDepth, 40)
			for _, cfg := range configs {
				for _, g := range goals {
					want := bfsDistance(prog, cfg, g, maxDepth)
					got := c.StateDistance(cfg, g)
					if got != want {
						t.Fatalf("stack %v goal %v: StateDistance=%d bruteForce=%d\n%s",
							cfg, g, got, want, prog)
					}
				}
			}
		})
	}
}

// BenchmarkStateDistance measures the hot path of the search: a cached
// per-goal lookup composed over a realistic call stack. The first iteration
// pays the (memoized) table construction; the steady state must stay well
// under a microsecond.
func BenchmarkStateDistance(b *testing.B) {
	var src strings.Builder
	// A wide program: a chain of functions so tables are non-trivial.
	src.WriteString("int f0(int v) { return v + 1; }\n")
	for i := 1; i < 40; i++ {
		fmt.Fprintf(&src, "int f%d(int v) { if (v > %d) return f%d(v) + 2; return f%d(v + 1); }\n",
			i, i, i-1, i-1)
	}
	src.WriteString("int main() { int x = input(\"x\"); return f39(x); }\n")
	prog := lang.MustCompile("bench.c", src.String())
	c := NewCalculator(prog)
	goal := mir.Loc{Fn: "f0", Block: 0, Index: 0}
	stack := []mir.Loc{
		{Fn: "main", Block: 0, Index: 2},
		{Fn: "f39", Block: 1, Index: 0},
		{Fn: "f38", Block: 1, Index: 0},
	}
	if d := c.StateDistance(stack, goal); d >= Infinite {
		b.Fatalf("bench stack unexpectedly infinite: %d", d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StateDistance(stack, goal)
	}
}

// bpfProgram compiles the §7.3 BPF program of bpf.StandardConfigs with
// the given number of branches and returns its call graph and its
// report's goals.
func bpfProgram(tb testing.TB, branches int) (*cfa.CallGraph, []mir.Loc) {
	tb.Helper()
	i := slices.IndexFunc(bpf.StandardConfigs(), func(p bpf.Params) bool { return p.Branches == branches })
	if i < 0 {
		tb.Fatalf("no standard BPF configuration has %d branches", branches)
	}
	g, err := bpf.Generate(bpf.StandardConfigs()[i])
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := g.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := g.Coredump()
	if err != nil {
		tb.Fatal(err)
	}
	return cfa.BuildCallGraph(prog), rep.Goals()
}

// BenchmarkCalculatorBPF measures the cold table build on a 2^11-branch
// BPF program, the static phase of a §7.3 run: a fresh Calculator (the
// instruction metric), then one StateDistance and one SyncDistance query
// from main's entry, which build the sync metric and both metrics' tables
// for the report's first goal.
func BenchmarkCalculatorBPF(b *testing.B) {
	cg, goals := bpfProgram(b, 1<<11)
	start := []mir.Loc{{Fn: "main"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCalculatorWith(cg)
		if c.StateDistance(start, goals[0]) >= Infinite || c.SyncDistance(start, goals[0]) >= Infinite {
			b.Fatalf("goal %v unreachable from main", goals[0])
		}
	}
}

// TestSharedBuildsOnce: concurrent Gets on one Shared build one Calculator
// (one miss, the other Gets hits), and a second Shared builds its own even
// for an identical program: tables belong to whoever holds the Shared.
func TestSharedBuildsOnce(t *testing.T) {
	prog := buildLinear()
	const callers = 8
	hits0, misses0 := SharedCacheStats()
	var sh Shared
	calcs := make([]*Calculator, callers)
	var wg sync.WaitGroup
	for i := range calcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calcs[i] = sh.Get(prog)
		}()
	}
	wg.Wait()
	for i, c := range calcs {
		if c == nil || c != calcs[0] {
			t.Fatalf("Get %d returned %p, Get 0 returned %p", i, c, calcs[0])
		}
	}
	if c := calcs[0]; c.CallGraph().Prog != prog {
		t.Error("the Calculator's call graph is of another program")
	}
	hits, misses := SharedCacheStats()
	if misses-misses0 != 1 || hits-hits0 != callers-1 {
		t.Errorf("%d Gets counted %d misses and %d hits, want 1 and %d", callers, misses-misses0, hits-hits0, callers-1)
	}

	var other Shared
	if other.Get(buildLinear()) == calcs[0] {
		t.Error("two Shareds handed out one Calculator")
	}
	if _, m := SharedCacheStats(); m-misses != 1 {
		t.Errorf("a second Shared counted %d misses, want 1", m-misses)
	}
}
