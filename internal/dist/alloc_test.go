//go:build !race

package dist

import "testing"

// The race detector's instrumentation allocates, so the allocation guard
// builds only without it.

// TestSummaryBuildAllocatesPerFunction: building both metrics' summary
// layers allocates O(functions), not O(instructions): per function a
// flattened CFG and one return-distance table per metric, never a queue
// entry or a per-instruction slice. The 2^8-branch program has about four
// times the instructions of the 2^6-branch one.
func TestSummaryBuildAllocatesPerFunction(t *testing.T) {
	for _, branches := range []int{1 << 6, 1 << 8} {
		cg, _ := bpfProgram(t, branches)
		funcs, instrs := len(cg.Prog.Order), cg.Prog.NumInstrs()
		allocs := testing.AllocsPerRun(1, func() {
			NewCalculatorWith(cg).SyncThrough("main")
		})
		t.Logf("%d branches: %d functions, %d instructions: %.0f allocations", branches, funcs, instrs, allocs)
		if limit := 16*funcs + 64; allocs > float64(limit) {
			t.Errorf("%d branches: building both metrics made %.0f allocations for %d functions and %d instructions, want at most %d",
				branches, allocs, funcs, instrs, limit)
		}
	}
}
