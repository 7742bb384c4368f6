package expr

import (
	"fmt"
	"testing"
)

// sharedDAG builds a term in which each level reuses the previous level
// twice, so the result is a DAG with O(n) distinct nodes but 2^n paths.
// This is the shape path constraints take in practice: one symbolic input
// feeding many derived comparisons.
func sharedDAG(n int) *Expr {
	e := Binary(OpAdd, Var("x"), Var("y"))
	for i := 0; i < n; i++ {
		e = Binary(OpXor, Binary(OpMul, e, Const(3)), Binary(OpAnd, e, Const(int64(i)+100)))
	}
	return e
}

// BenchmarkSubstitute measures rewriting a shared-subtree DAG. Hash-consing
// plus the per-call memo should make this O(distinct nodes) in both time
// and allocations; a naive tree walk is O(paths) = exponential.
func BenchmarkSubstitute(b *testing.B) {
	for _, depth := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := sharedDAG(depth)
			four := Const(4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Substitute("x", four)
			}
		})
	}
}

// BenchmarkConstruct measures raw constructor throughput on the hot
// branch-condition shape (var REL const chains).
func BenchmarkConstruct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := Var("x")
		c := Binary(OpGt, x, Const(int64(i%64)))
		c = Binary(OpLAnd, c, Binary(OpLt, x, Const(100)))
		_ = Not(c)
	}
}
