package solver

import (
	"fmt"
	"testing"

	"esd/internal/expr"
)

// pathConstraints builds an n-deep path condition over a handful of
// variables, the query shape the symbolic VM's concretize/feasibility
// checks issue: each conjunct relates one input to constants and to its
// neighbors.
func pathConstraints(n int) []*expr.Expr {
	vars := []*expr.Expr{expr.Var("a"), expr.Var("b"), expr.Var("c"), expr.Var("d")}
	cs := make([]*expr.Expr, 0, n)
	for i := 0; i < n; i++ {
		v := vars[i%len(vars)]
		w := vars[(i+1)%len(vars)]
		cs = append(cs, expr.Binary(expr.OpGe, v, expr.Const(int64(i%5))))
		cs = append(cs, expr.Binary(expr.OpLt, expr.Binary(expr.OpAdd, v, w), expr.Const(int64(200+i))))
	}
	return cs
}

// BenchmarkConcretize measures the solver work behind symex concretization:
// deciding a path condition and extracting a model. Fresh solver per
// iteration, so every component is solved rather than answered by the
// memo.
func BenchmarkConcretize(b *testing.B) {
	for _, n := range []int{4, 16, 48} {
		b.Run(fmt.Sprintf("conjuncts=%d", n), func(b *testing.B) {
			cs := pathConstraints(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := New()
				res, model := s.Check(cs)
				if res != Sat || model == nil {
					b.Fatalf("expected sat, got %v", res)
				}
			}
		})
	}
}

// BenchmarkCheckCached measures the repeated-query path: the same
// constraint set checked against a warm solver, which flattens and
// partitions it, answers every component from the private memo, and
// merges their models into the one map Check returns. Path conditions
// that grow by one conjunct take this path for all but the touched
// component.
func BenchmarkCheckCached(b *testing.B) {
	cs := pathConstraints(32)
	s := New()
	s.Check(cs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Check(cs)
	}
}

// BenchmarkCaseSplit measures the backtracking search behind a component
// propagation cannot decide: a product of two inputs pinned to a
// semiprime, which the solver splits on candidate values and bisects,
// substituting each candidate through the set. Fresh solver per iteration,
// so every split is paid for.
func BenchmarkCaseSplit(b *testing.B) {
	x, y := expr.Var("x"), expr.Var("y")
	cs := []*expr.Expr{
		expr.Binary(expr.OpEq, expr.Binary(expr.OpMul, x, y), expr.Const(391)),
		expr.Binary(expr.OpGt, x, expr.Const(1)),
		expr.Binary(expr.OpGt, y, expr.Const(1)),
		expr.Binary(expr.OpLt, x, expr.Const(100)),
		expr.Binary(expr.OpLt, y, expr.Const(100)),
		expr.Binary(expr.OpLe, x, y),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		if res, m := s.Check(cs); res != Sat || m["x"] != 17 {
			b.Fatalf("check: %v %v, want sat with x=17", res, m)
		}
	}
}

// ls4Component is the component shape every ls4 case split decides: one
// input x, a quotient x/8 bounded to 1 and kept nonzero, and the bounds
// 0 <= k % (x/8) < 8 for k = 0…12. The unsat variant adds the negated
// bound for k = 13; propagation does not read through the division, so
// without the range refutation the split bisects x's whole universe.
func ls4Component(unsat bool) []*expr.Expr {
	x := expr.Var("x")
	q := expr.Binary(expr.OpDiv, x, expr.Const(8))
	cs := []*expr.Expr{
		expr.Binary(expr.OpGe, x, expr.Const(8)),
		expr.Binary(expr.OpLe, q, expr.Const(1)),
		expr.Binary(expr.OpNe, q, expr.Const(0)),
	}
	bound := func(k int64) *expr.Expr {
		return expr.Binary(expr.OpLt, expr.Binary(expr.OpMod, expr.Const(k), q), expr.Const(8))
	}
	for k := int64(0); k <= 12; k++ {
		cs = append(cs, expr.Binary(expr.OpGe, expr.Binary(expr.OpMod, expr.Const(k), q), expr.Const(0)), bound(k))
	}
	if unsat {
		cs = append(cs, expr.Not(bound(13)))
	}
	return cs
}

// BenchmarkOneVarSplit measures deciding the ls4 component and its Sat
// sibling on a fresh solver per iteration, so no cache tier answers.
func BenchmarkOneVarSplit(b *testing.B) {
	for _, bc := range []struct {
		name string
		want Result
	}{{"unsat", Unsat}, {"sat", Sat}} {
		b.Run(bc.name, func(b *testing.B) {
			cs := ls4Component(bc.want == Unsat)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, _ := New().Check(cs); res != bc.want {
					b.Fatalf("check: %v, want %v", res, bc.want)
				}
			}
		})
	}
}
