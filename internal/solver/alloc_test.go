//go:build !race

package solver

import (
	"testing"

	"esd/internal/expr"
)

// The race detector's instrumentation allocates, so the allocation guards
// build only without it.

// TestWarmMayBeTrueAllocatesNothing: a branch-feasibility query whose
// components the private cache already answers builds its conjunction,
// partition and component keys in the solver's scratch and merges no
// model, so it allocates nothing. Most of a synthesis's queries take this
// path.
func TestWarmMayBeTrueAllocatesNothing(t *testing.T) {
	s := New()
	path := pathConstraints(16)
	cond := expr.Binary(expr.OpLt, expr.Var("a"), expr.Const(50))
	if ok, res := s.MayBeTrue(path, cond); !ok {
		t.Fatalf("warm-up query: %v, want sat", res)
	}
	hits := s.CacheHits
	allocs := testing.AllocsPerRun(50, func() { s.MayBeTrue(path, cond) })
	if allocs != 0 {
		t.Fatalf("warm MayBeTrue allocated %.1f objects per query, want 0", allocs)
	}
	if s.CacheHits == hits {
		t.Fatal("the repeated query missed the private cache: the test no longer measures the warm path")
	}
}
