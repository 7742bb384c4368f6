//go:build !race

package expr

import "testing"

// The race detector's instrumentation allocates, so the allocation guards
// build only without it.

// TestSubstResetReusesMemo: once a warm-up round has grown the memo and
// interned every result, retargeting one Subst and re-applying it over the
// same terms allocates nothing — the solver's case split runs this loop
// once per candidate value.
func TestSubstResetReusesMemo(t *testing.T) {
	x, y := Var("x"), Var("y")
	terms := []*Expr{
		Binary(OpGt, Binary(OpMul, x, y), Const(10)),
		Binary(OpEq, Binary(OpMul, x, Const(3)), y),
		Ite(Binary(OpLt, x, Const(5)), Binary(OpMul, x, x), y),
		Binary(OpNe, Ite(Binary(OpGe, y, x), Binary(OpMul, x, y), Const(7)), Const(0)),
	}
	// out keeps every result reachable, so no collection can force a
	// result node to be re-interned between rounds.
	out := make([]*Expr, 0, 4*len(terms))
	var s Subst
	round := func() {
		out = out[:0]
		for v := int64(0); v < 4; v++ {
			s.Reset("x", Const(v))
			for _, e := range terms {
				out = append(out, s.Apply(e))
			}
		}
		s.Reset("", nil)
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("Reset+Apply allocated %.1f objects per round, want 0", allocs)
	}
	if want := Binary(OpEq, Const(9), y); out[len(out)-3] != want {
		t.Fatalf("x=3 rewrote the second term to %v, want %v", out[len(out)-3], want)
	}
}
