package solver

import (
	"testing"
	"weak"

	"esd/internal/expr"
)

// TestCacheSurvivesEpochChange: the solver cache is keyed by canonical
// structural keys, not node identity, so collecting the constraint terms
// — which makes a rebuild intern new nodes — must not cost the cache its
// entries: the first query after the rebuild is a hit. Entries hold only
// plain name→value models, so they keep no term alive.
func TestCacheSurvivesEpochChange(t *testing.T) {
	build := func() []*expr.Expr {
		x := expr.Var("epoch-survive-x")
		return []*expr.Expr{
			expr.Binary(expr.OpGt, x, expr.Const(10)),
			expr.Binary(expr.OpLt, x, expr.Const(20)),
		}
	}
	cs := build()
	s := New()
	if res, _ := s.Check(cs); res != Sat {
		t.Fatalf("warmup check: %v", res)
	}
	hits := s.CacheHits
	if res, _ := s.Check(cs); res != Sat {
		t.Fatal("repeat check not sat")
	}
	if s.CacheHits <= hits {
		t.Fatal("setup: repeat query did not hit the warm cache")
	}

	// Drop the constraints and force a collection: the terms are
	// reclaimed and rebuilt from scratch, so their nodes change but their
	// structural keys do not. The warm solver must hit on the very first
	// query after the rebuild.
	old := []weak.Pointer[expr.Expr]{weak.Make(cs[0]), weak.Make(cs[1])}
	cs = nil
	expr.TryReclaim()
	cs = build()
	if old[0].Value() == cs[0] && old[1].Value() == cs[1] {
		t.Fatal("collection rebuilt no node; the test perturbs nothing")
	}
	hits = s.CacheHits
	res, model := s.Check(cs)
	if res != Sat || model == nil {
		t.Fatalf("post-collection check: %v", res)
	}
	if s.CacheHits <= hits {
		t.Error("structural-keyed cache missed after the terms were re-minted")
	}
	// The served model must satisfy the rebuilt terms.
	for _, c := range cs {
		v, err := c.Eval(completeModel(model, c))
		if err != nil || v == 0 {
			t.Fatalf("post-collection model %v does not satisfy %v (err=%v)", model, c, err)
		}
	}
}
