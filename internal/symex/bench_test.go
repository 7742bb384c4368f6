package symex

import (
	"fmt"
	"testing"

	"esd/internal/mir"
	"esd/internal/solver"
)

// leafFunc is leaf(x): allocate one one-cell stack object, store x
// there, return x.
func leafFunc() *mir.Func {
	leaf := mir.NewFuncBuilder("leaf", "x")
	slot := leaf.EmitAlloca(1)
	leaf.EmitStore(mir.R(slot), mir.I(0), mir.R(0))
	leaf.EmitRet(mir.R(0))
	return leaf.F
}

// loopCallingLeaf ends b's function with a loop calling leaf(7).
func loopCallingLeaf(b *mir.Builder) {
	entry := b.Current()
	loop := b.NewBlock("loop")
	b.SetBlock(entry)
	b.EmitJmp(loop)
	b.SetBlock(loop)
	b.EmitCall("leaf", mir.I(7))
	b.EmitJmp(loop)
}

// callLoopProg is main looping over a call of leaf: the call → alloca →
// ret cycle that dominates a search's allocations.
func callLoopProg() *mir.Program {
	b := mir.NewFuncBuilder("main")
	loopCallingLeaf(b)
	prog := mir.NewProgram("calls")
	prog.AddFunc(leafFunc())
	prog.AddFunc(b.F)
	return prog
}

// callDepthProg is main calling down a chain f1 → … → f(depth-1), whose
// innermost function loops over the call of leaf. Every function of the
// chain holds one stack object.
func callDepthProg(depth int) *mir.Program {
	prog := mir.NewProgram("depth")
	prog.AddFunc(leafFunc())
	for i := depth - 1; i >= 0; i-- {
		name := fmt.Sprintf("f%d", i)
		if i == 0 {
			name = "main"
		}
		b := mir.NewFuncBuilder(name)
		slot := b.EmitAlloca(1)
		b.EmitStore(mir.R(slot), mir.I(0), mir.I(int64(i)))
		if i == depth-1 {
			loopCallingLeaf(b)
		} else {
			b.EmitCall(fmt.Sprintf("f%d", i+1))
			b.EmitRet(mir.I(0))
		}
		prog.AddFunc(b.F)
	}
	return prog
}

// BenchmarkCallRet runs one call → alloca → store → ret → jmp cycle per
// op on one state.
func BenchmarkCallRet(b *testing.B) {
	e := New(callLoopProg(), solver.New())
	st, err := e.InitialState()
	if err != nil {
		b.Fatal(err)
	}
	step := func() {
		if succ, err := e.Step(st); err != nil || len(succ) != 1 {
			b.Fatalf("step: %d successors, err %v", len(succ), err)
		}
	}
	step() // entry jump
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 5; j++ {
			step()
		}
	}
}

// BenchmarkForkCall forks a state six frames deep and steps the child
// into a call, once per op: the copy a fork makes of the thread's frames
// and registers, then the child's first frame push.
func BenchmarkForkCall(b *testing.B) {
	e := New(callDepthProg(6), solver.New())
	st, err := e.InitialState()
	if err != nil {
		b.Fatal(err)
	}
	for len(st.CurThread().Frames) < 6 || st.CurrentInstr().Op != mir.Call {
		if succ, err := e.Step(st); err != nil || len(succ) != 1 {
			b.Fatalf("step: %d successors, err %v", len(succ), err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := e.ForkState(st)
		if succ, err := e.Step(c); err != nil || len(succ) != 1 || len(c.CurThread().Frames) != 7 {
			b.Fatalf("child call: %d successors, err %v", len(succ), err)
		}
	}
}
