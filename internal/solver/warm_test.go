package solver

import (
	"maps"
	"math/rand"
	"testing"

	"esd/internal/expr"
)

// TestWarmCheckMatchesCold: a long-lived solver answers most components
// from its memo, and must answer every query exactly as a fresh solver
// that decides each component anew. A seeded generator grows path
// conditions the way the VM does, one conjunct at a time over a few
// variables the paths share: linear relations, division and modulo by
// constants, and products that the small node budget leaves Unknown.
// After each append the path is checked, and a further condition is asked
// with MayBeTrue and MustBeTrue; a path that stops being Sat is abandoned,
// as the VM abandons it.
func TestWarmCheckMatchesCold(t *testing.T) {
	const maxNodes = 40
	r := rand.New(rand.NewSource(1))
	names := []string{"wa", "wb", "wc"}
	pick := func() *expr.Expr { return v(names[r.Intn(len(names))]) }
	coeff := func() *expr.Expr { return c(int64(r.Intn(7) - 3)) }
	divisor := func() *expr.Expr { return c(int64(1 + r.Intn(5))) }
	rels := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	conjunct := func() *expr.Expr {
		var lhs *expr.Expr
		switch r.Intn(5) {
		case 0, 1:
			lhs = expr.Binary(expr.OpAdd,
				expr.Binary(expr.OpMul, coeff(), pick()),
				expr.Binary(expr.OpMul, coeff(), pick()))
		case 2:
			lhs = expr.Binary(expr.OpDiv, pick(), divisor())
		case 3:
			lhs = expr.Binary(expr.OpMod, pick(), divisor())
		default:
			lhs = expr.Binary(expr.OpMul, pick(), pick())
		}
		return expr.Binary(rels[r.Intn(len(rels))], lhs, c(int64(r.Intn(41)-20)))
	}
	fresh := func() *Solver {
		s := New()
		s.MaxNodes = maxNodes
		return s
	}

	warm := fresh()
	seen := map[Result]int{}
	for range 60 {
		var path []*expr.Expr
		for range 10 {
			path = append(path, conjunct())
			res, model := warm.Check(path)
			coldRes, coldModel := fresh().Check(path)
			if res != coldRes || !maps.Equal(model, coldModel) {
				t.Fatalf("Check(%v): warm %v %v, cold %v %v", path, res, model, coldRes, coldModel)
			}
			seen[res]++
			cond := conjunct()
			_, may := warm.MayBeTrue(path, cond)
			if _, coldMay := fresh().MayBeTrue(path, cond); may != coldMay {
				t.Fatalf("MayBeTrue(%v, %v): warm %v, cold %v", path, cond, may, coldMay)
			}
			_, must := warm.MustBeTrue(path, cond)
			if _, coldMust := fresh().MustBeTrue(path, cond); must != coldMust {
				t.Fatalf("MustBeTrue(%v, %v): warm %v, cold %v", path, cond, must, coldMust)
			}
			if res != Sat {
				break
			}
		}
	}
	if seen[Sat] == 0 || seen[Unsat] == 0 || seen[Unknown] == 0 {
		t.Fatalf("path verdicts %v: the generator no longer reaches all three", seen)
	}
	if warm.CacheHits == 0 {
		t.Fatal("the long-lived solver answered nothing from its memo")
	}
	t.Logf("path verdicts %v; warm solver: %d queries, %d component hits", seen, warm.Queries, warm.CacheHits)
}
