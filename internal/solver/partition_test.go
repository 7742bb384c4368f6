package solver

import (
	"fmt"
	"slices"
	"testing"

	"esd/internal/expr"
)

func gtc(a *expr.Expr, v int64) *expr.Expr { return expr.Binary(expr.OpGt, a, expr.Const(v)) }
func ltc(a *expr.Expr, v int64) *expr.Expr { return expr.Binary(expr.OpLt, a, expr.Const(v)) }
func eqc(a *expr.Expr, v int64) *expr.Expr { return expr.Binary(expr.OpEq, a, expr.Const(v)) }

func TestPartitionComponents(t *testing.T) {
	a, b, c, d := expr.Var("pa"), expr.Var("pb"), expr.Var("pc"), expr.Var("pd")
	cs := []*expr.Expr{
		gtc(a, 1),
		gtc(c, 2),
		ltc(expr.Binary(expr.OpAdd, a, b), 10), // joins a and b
		ltc(d, 5),
		eqc(expr.Binary(expr.OpAdd, c, d), 7), // joins c and d
	}
	comps := New().partition(cs)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2: %v", len(comps), comps)
	}
	sizes := map[int]bool{len(comps[0]): true, len(comps[1]): true}
	if !sizes[2] || !sizes[3] {
		t.Fatalf("component sizes %d/%d, want 2 and 3", len(comps[0]), len(comps[1]))
	}
}

// The conjunction of independent groups must produce one merged, verified
// model covering all groups.
func TestCheckMergesIndependentModels(t *testing.T) {
	x, y := expr.Var("mix"), expr.Var("miy")
	cs := []*expr.Expr{eqc(x, 41), eqc(y, 17)}
	s := New()
	res, model := s.Check(cs)
	if res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	if model["mix"] != 41 || model["miy"] != 17 {
		t.Fatalf("model = %v", model)
	}
}

// An unsatisfiable component must sink the whole conjunction even when the
// other components are satisfiable.
func TestCheckUnsatComponentDominates(t *testing.T) {
	x, y := expr.Var("udx"), expr.Var("udy")
	cs := []*expr.Expr{
		eqc(x, 1),
		gtc(y, 5), ltc(y, 3), // unsat on its own
	}
	s := New()
	if res, _ := s.Check(cs); res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
}

// Appending one conjunct to a path condition must hit the cached verdicts
// of every untouched component.
func TestComponentCacheHitsOnExtension(t *testing.T) {
	x, y, z := expr.Var("cex"), expr.Var("cey"), expr.Var("cez")
	path := []*expr.Expr{gtc(x, 3), ltc(x, 100), eqc(y, 9)}
	s := New()
	if res, _ := s.Check(path); res != Sat {
		t.Fatal("base query not sat")
	}
	hitsBefore := s.CacheHits
	extended := append(append([]*expr.Expr(nil), path...), gtc(z, 0))
	if res, _ := s.Check(extended); res != Sat {
		t.Fatal("extended query not sat")
	}
	if s.CacheHits <= hitsBefore {
		t.Fatalf("extension re-solved untouched components: hits %d -> %d", hitsBefore, s.CacheHits)
	}
}

// The cache key is the identity of the constraint set: permuted and
// duplicated conjunct lists are the same query.
func TestCacheKeyedByIdentity(t *testing.T) {
	x := expr.Var("ckx")
	c1, c2 := gtc(x, 3), ltc(x, 10)
	s := New()
	s.Check([]*expr.Expr{c1, c2})
	q := s.Queries
	hits := s.CacheHits
	if res, _ := s.Check([]*expr.Expr{c2, c1, c2}); res != Sat {
		t.Fatal("permuted query not sat")
	}
	if s.Queries != q+1 || s.CacheHits != hits+1 {
		t.Fatalf("permuted+duplicated set missed the cache: queries %d hits %d", s.Queries, s.CacheHits)
	}
}

// TestCacheHitsCountComponents: CacheHits counts components answered by
// the private memo, so replaying a run's queries on the solver that
// answered them counts one hit per component, and a warmer solver never
// reads fewer hits than a colder one. Six queries each append a conjunct
// over a new variable, so the k-th has k components: the first pass finds
// the k-1 it shares with its predecessor (15 in all), the second finds
// all 21.
func TestCacheHitsCountComponents(t *testing.T) {
	var path []*expr.Expr
	var queries [][]*expr.Expr
	for i := range 6 {
		path = append(path, gtc(expr.Var(fmt.Sprintf("hc%d", i)), int64(i)))
		queries = append(queries, slices.Clone(path))
	}
	s := New()
	pass := func() int {
		hits := s.CacheHits
		for _, q := range queries {
			if res, _ := s.Check(q); res != Sat {
				t.Fatalf("query over %d variables: %v, want sat", len(q), res)
			}
		}
		return s.CacheHits - hits
	}
	cold := pass()
	warm := pass()
	if cold != 15 || warm != 21 {
		t.Fatalf("hits per pass: cold %d, warm %d; want 15 and 21", cold, warm)
	}
}
