package expr

import (
	"math/rand"
	"testing"
)

// The oracle below is the map-based linear folding foldLinear replaced,
// kept verbatim apart from its identifiers: the slice version must build
// exactly the same terms, zero coefficients and wrapped products included.

type linTermMap struct {
	coeff map[string]int64
	k     int64
}

func linearOfMap(e *Expr, depth int) (linTermMap, bool) {
	if depth <= 0 {
		return linTermMap{}, false
	}
	switch e.Op {
	case OpConst:
		return linTermMap{k: e.C}, true
	case OpVar:
		return linTermMap{coeff: map[string]int64{e.Name: 1}}, true
	case OpNeg:
		l, ok := linearOfMap(e.A, depth-1)
		if !ok {
			return linTermMap{}, false
		}
		return l.scaled(-1), true
	case OpAdd, OpSub:
		l1, ok := linearOfMap(e.A, depth-1)
		if !ok {
			return linTermMap{}, false
		}
		l2, ok := linearOfMap(e.B, depth-1)
		if !ok {
			return linTermMap{}, false
		}
		if e.Op == OpSub {
			l2 = l2.scaled(-1)
		}
		return l1.plus(l2), true
	case OpMul:
		if c, ok := e.B.IsConst(); ok {
			l, lok := linearOfMap(e.A, depth-1)
			if lok {
				return l.scaled(c), true
			}
		}
		if c, ok := e.A.IsConst(); ok {
			l, lok := linearOfMap(e.B, depth-1)
			if lok {
				return l.scaled(c), true
			}
		}
	}
	return linTermMap{}, false
}

func (l linTermMap) scaled(c int64) linTermMap {
	out := linTermMap{k: l.k * c, coeff: map[string]int64{}}
	for v, co := range l.coeff {
		out.coeff[v] = co * c
	}
	return out
}

func (l linTermMap) plus(o linTermMap) linTermMap {
	out := linTermMap{k: l.k + o.k, coeff: map[string]int64{}}
	for v, co := range l.coeff {
		out.coeff[v] = co
	}
	for v, co := range o.coeff {
		out.coeff[v] += co
		if out.coeff[v] == 0 {
			delete(out.coeff, v)
		}
	}
	return out
}

func foldLinearMap(op Op, a, b *Expr) (*Expr, bool) {
	la, ok := linearOfMap(a, linearDepth)
	if !ok {
		return nil, false
	}
	lb, ok := linearOfMap(b, linearDepth)
	if !ok {
		return nil, false
	}
	if op == OpSub {
		lb = lb.scaled(-1)
	}
	sum := la.plus(lb)
	// Only rebuild when the combination removed variables; otherwise keep
	// the user's structure (cheaper than re-normalizing everything).
	before := map[string]bool{}
	for v := range la.coeff {
		before[v] = true
	}
	for v := range lb.coeff {
		before[v] = true
	}
	if len(sum.coeff) >= len(before) {
		return nil, false
	}
	switch len(sum.coeff) {
	case 0:
		return Const(sum.k), true
	case 1:
		for v, c := range sum.coeff {
			var t *Expr = Var(v)
			if c != 1 {
				t = intern(OpMul, 0, "", t, Const(c), nil, nil)
			}
			if sum.k == 0 {
				return t, true
			}
			return intern(OpAdd, 0, "", t, Const(sum.k), nil, nil), true
		}
	}
	return nil, false
}

// linearGen builds random Add/Sub/Neg/Mul-by-constant trees over a few
// variables, with constants near 2^32 and 2^63 so coefficients wrap (to
// zero, among other values). Half the nodes are interned raw, bypassing
// the constructors' simplification, so shapes Binary would never build
// (constant products, x*2^62*4) reach the folder too.
type linearGen struct {
	r    *rand.Rand
	vars []*Expr
}

func (g *linearGen) constant() int64 {
	switch g.r.Intn(5) {
	case 0:
		return int64(g.r.Intn(7)) - 3
	case 1:
		return 1<<32 + int64(g.r.Intn(5)) - 2
	case 2:
		return -(1 << 32) + int64(g.r.Intn(5)) - 2
	case 3:
		return 1<<62 + int64(g.r.Intn(3)) - 1
	default:
		return -1<<63 + int64(g.r.Intn(3))
	}
}

func (g *linearGen) term(depth int) *Expr {
	if depth == 0 || g.r.Intn(4) == 0 {
		if g.r.Intn(3) == 0 {
			return Const(g.constant())
		}
		return g.vars[g.r.Intn(len(g.vars))]
	}
	raw := g.r.Intn(2) == 0
	switch g.r.Intn(5) {
	case 0:
		a := g.term(depth - 1)
		if raw {
			return intern(OpNeg, 0, "", a, nil, nil, nil)
		}
		return Unary(OpNeg, a)
	case 1:
		a, c := g.term(depth-1), Const(g.constant())
		if g.r.Intn(2) == 0 {
			a, c = c, a
		}
		if raw {
			return intern(OpMul, 0, "", a, c, nil, nil)
		}
		return Binary(OpMul, a, c)
	default:
		op := OpAdd
		if g.r.Intn(2) == 0 {
			op = OpSub
		}
		a, b := g.term(depth-1), g.term(depth-1)
		if raw {
			return intern(op, 0, "", a, b, nil, nil)
		}
		return Binary(op, a, b)
	}
}

// TestFoldLinearMatchesMapOracle requires the slice-based folder to return
// pointer-identical results to the map-based one on random operands.
func TestFoldLinearMatchesMapOracle(t *testing.T) {
	x := Var("x")
	// The zero-coefficient rule by hand: x's coefficient wraps to zero on
	// the left and survives, y's cancels across the operands and goes, so
	// the fold rebuilds the unsimplified x*0.
	x0 := intern(OpMul, 0, "", intern(OpMul, 0, "", x, Const(1<<62), nil, nil), Const(4), nil, nil)
	wrapped := intern(OpAdd, 0, "", x0, Var("y"), nil, nil)
	got, ok := foldLinear(OpSub, wrapped, Var("y"))
	want, wok := foldLinearMap(OpSub, wrapped, Var("y"))
	if got != want || ok != wok || !ok || got.Op != OpMul {
		t.Fatalf("hand case: got %v,%v want %v,%v", got, ok, want, wok)
	}

	folds := 0
	for seed := int64(1); seed <= 40; seed++ {
		g := &linearGen{r: rand.New(rand.NewSource(seed))}
		for _, n := range []string{"x", "y", "z", "w"}[:3+seed%2] {
			g.vars = append(g.vars, Var(n))
		}
		for i := 0; i < 500; i++ {
			a, b := g.term(1+g.r.Intn(7)), g.term(1+g.r.Intn(7))
			for _, op := range []Op{OpAdd, OpSub} {
				got, ok := foldLinear(op, a, b)
				want, wok := foldLinearMap(op, a, b)
				if got != want || ok != wok {
					t.Fatalf("seed %d: fold %v of %v and %v: got %v,%v want %v,%v", seed, op, a, b, got, ok, want, wok)
				}
				if ok {
					folds++
				}
			}
		}
	}
	if folds < 1000 {
		t.Fatalf("only %d of 40000 operand pairs folded: the generator no longer exercises the folder", folds)
	}
}
