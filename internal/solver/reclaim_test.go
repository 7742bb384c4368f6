package solver

import (
	"runtime"
	"testing"
	"time"

	"esd/internal/expr"
)

// internerFloor forces collections until the interner's term count stops
// moving, so terms earlier tests dropped cannot be mistaken for terms this
// test released, and returns the settled footprint.
func internerFloor(t *testing.T) expr.Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	prev, stable := expr.InternerStats(), 0
	for stable < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("interner did not settle: %d terms", prev.Terms)
		}
		expr.TryReclaim()
		time.Sleep(2 * time.Millisecond)
		cur := expr.InternerStats()
		if cur.Terms == prev.Terms {
			stable++
		} else {
			stable = 0
		}
		prev = cur
	}
	return prev
}

// TestScratchPinsNoTerms: a solver keeps no term alive between queries.
// Its substitution memo, flattened query and components are emptied before
// Check returns, so once the caller drops a case-split query's constraints
// every term built for it is collected while the solver itself stays
// referenced, as an idle solver does between runs.
func TestScratchPinsNoTerms(t *testing.T) {
	floor := internerFloor(t)
	s := New()
	func() {
		// x*y is outside the linear fragment propagation decides, so the
		// search splits on candidate values and substitutes each one.
		x, y := expr.Var("pin-x"), expr.Var("pin-y")
		cs := []*expr.Expr{
			expr.Binary(expr.OpEq, expr.Binary(expr.OpMul, x, y), expr.Const(391)),
			expr.Binary(expr.OpGt, x, expr.Const(1)),
			expr.Binary(expr.OpGt, y, expr.Const(1)),
			expr.Binary(expr.OpLt, x, expr.Const(100)),
			expr.Binary(expr.OpLt, y, expr.Const(100)),
			expr.Binary(expr.OpLe, x, y),
		}
		if res, m := s.Check(cs); res != Sat || m["pin-x"] != 17 || m["pin-y"] != 23 {
			t.Fatalf("check: %v %v, want sat with 17*23", res, m)
		}
		if expr.InternerStats().Terms <= floor.Terms {
			t.Fatal("the query interned no terms: the test no longer measures anything")
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		expr.TryReclaim()
		cur := expr.InternerStats()
		if cur.Terms <= floor.Terms && cur.Bytes <= floor.Bytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interner at %d terms / %d B, floor %d / %d: the solver's scratch pins terms",
				cur.Terms, cur.Bytes, floor.Terms, floor.Bytes)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(s)
}
