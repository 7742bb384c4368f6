//go:build !race

package symex

import (
	"fmt"
	"testing"
	"unsafe"

	"esd/internal/expr"
	"esd/internal/mir"
	"esd/internal/solver"
)

// The race detector's instrumentation allocates, so the allocation guards
// build only without it.

// TestStraightLineStepAllocatesNothing: a step that does not fork returns
// the engine's own one-element successor slice, so stepping a loop of
// constants, constant arithmetic and jumps allocates nothing per Step.
func TestStraightLineStepAllocatesNothing(t *testing.T) {
	b := mir.NewFuncBuilder("main")
	entry := b.Current()
	loop := b.NewBlock("loop")
	b.SetBlock(entry)
	one := b.EmitConst(1)
	two := b.EmitConst(2)
	sum := b.EmitBin(int(expr.OpAdd), mir.R(one), mir.R(two))
	b.EmitJmp(loop)
	b.SetBlock(loop)
	b.EmitBin(int(expr.OpMul), mir.R(sum), mir.R(two))
	b.EmitJmp(entry)
	prog := mir.NewProgram("straight")
	prog.AddFunc(b.F)

	e := New(prog, solver.New())
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		succ, err := e.Step(st)
		if err != nil || len(succ) != 1 || succ[0] != st {
			t.Fatalf("step: %d successors, err %v", len(succ), err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("straight-line Step allocated %.2f objects per step, want 0", allocs)
	}
	if st.Status != StateRunning || st.Steps < 200 {
		t.Fatalf("state %s after %d steps, want a running loop", st.Status, st.Steps)
	}
}

// TestValueIsTwoWords: a value is one term pointer and one word, so a
// register file or an object's cells hold one pointer word per value.
func TestValueIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("Value is %d bytes, want 16", got)
	}
}

// TestObjectFitsSizeClass: an object stays in the allocator's 80-byte
// size class, and a one-cell object with its cell in the 96-byte one.
func TestObjectFitsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got > 80 {
		t.Errorf("Object is %d bytes, want at most 80", got)
	}
	if got := unsafe.Sizeof(cellObject{}); got > 96 {
		t.Errorf("a one-cell object is %d bytes, want at most 96", got)
	}
}

// stepper returns a step function for prog's main that fails the test
// unless the step keeps one running successor.
func stepper(t *testing.T, prog *mir.Program) (*State, func()) {
	t.Helper()
	e := New(prog, solver.New())
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	return st, func() {
		succ, err := e.Step(st)
		if err != nil || len(succ) != 1 || succ[0] != st || st.Status != StateRunning {
			t.Fatalf("step: %d successors, err %v, %s", len(succ), err, st.Summary())
		}
	}
}

// TestPointerArithmeticAllocatesNothing: pointer values carry their object
// in the value word, so taking an address, pointer arithmetic, and loads
// and stores through the result allocate nothing once the object is owned.
// The guard measures whole loop iterations: a per-step average would round
// an allocation every few steps down to zero.
func TestPointerArithmeticAllocatesNothing(t *testing.T) {
	b := mir.NewFuncBuilder("main")
	entry := b.Current()
	loop := b.NewBlock("loop")
	b.SetBlock(entry)
	b.EmitJmp(loop)
	b.SetBlock(loop)
	base := b.EmitGlobalAddr("g")
	p := b.EmitBin(int(expr.OpAdd), mir.R(base), mir.I(1))
	v := b.EmitLoad(mir.R(p), mir.I(1))
	w := b.EmitBin(int(expr.OpAdd), mir.R(v), mir.I(1))
	b.EmitStore(mir.R(p), mir.I(2), mir.R(w))
	q := b.EmitBin(int(expr.OpSub), mir.R(p), mir.I(1))
	b.EmitStore(mir.R(q), mir.I(0), mir.R(p))
	b.EmitJmp(loop)
	prog := mir.NewProgram("ptrloop")
	prog.AddGlobal(&mir.Global{Name: "g", Size: 4})
	prog.AddFunc(b.F)

	st, step := stepper(t, prog)
	iteration := func() {
		for i := 0; i < len(loop.Instrs); i++ {
			step()
		}
	}
	step() // entry jump
	iteration()
	if allocs := testing.AllocsPerRun(300, iteration); allocs != 0 {
		t.Fatalf("address, pointer arithmetic, loads and stores allocated %.2f objects per iteration, want 0", allocs)
	}
	g := st.GlobalObj("g")
	for off, want := range map[int64]string{0: fmt.Sprintf("ptr(obj%d+1)", g), 2: "0", 3: "1"} {
		if c, ok := st.Mem.Read(g, off); !ok || c.String() != want {
			t.Fatalf("g[%d] = %v, want %s", off, c, want)
		}
	}
}

// TestCallAllocaRetAllocations: a call that allocates one one-cell stack
// object and returns allocates exactly one freed-log entry. The frame is
// appended to the thread's frame slice by value, its registers come from
// the thread's register chunk, the stack object the previous return
// freed is reused, and the thread's alloca stack is reused.
func TestCallAllocaRetAllocations(t *testing.T) {
	st, step := stepper(t, callLoopProg())
	step() // entry jump
	cycle := func() {
		for i := 0; i < 5; i++ { // call, alloca, store, ret, jmp
			step()
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 1 {
		t.Fatalf("call/alloca/ret cycle allocated %.2f objects, want 1 (the freed-log entry)", allocs)
	}
	if n := len(st.CurThread().Frames); n != 1 {
		t.Fatalf("%d frames after the cycles, want 1", n)
	}
}

// TestValueRendering: values render in debugger output and crash messages
// as they always have: ptr(objN+offset), fn(name), undef, or the term.
func TestValueRendering(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{PtrVal(5, 3), "ptr(obj5+3)"},
		{Value{E: expr.Binary(expr.OpAdd, expr.Var("i"), expr.Const(2)), ref: 2}, "ptr(obj2+(i + 2))"},
		{FnVal("worker"), "fn(worker)"},
		{IntVal(-4), "-4"},
		{Value{}, "undef"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	for _, c := range []struct {
		src, want string
	}{
		{`int worker(int x) { return x; }
int main() { int f = &worker; return -f; }`, "unary neg applied to non-scalar fn(worker)"},
		{`int main() { int *p = malloc(2); return p(1); }`, "indirect call through non-function value ptr(obj2+0)"},
	} {
		st := runConcrete(t, c.src)
		if st.Status != StateCrashed || st.Crash.Message != c.want {
			t.Errorf("crash message %q, want %q (%s)", crashMessage(st), c.want, st.Summary())
		}
	}
}
