//go:build !race

package symex

import (
	"testing"

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
