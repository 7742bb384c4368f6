package solver

import (
	"math/rand"
	"testing"

	"esd/internal/expr"
)

// oracleBox is the widest box the division oracle puts a variable in.
const oracleBox = 20

// oracleCase is one generated component with the box its variables are
// confined to by explicit bound conjuncts.
type oracleCase struct {
	cs     []*expr.Expr
	vars   []string
	lo, hi map[string]int64
}

// genOracleCase builds a one- or two-variable constraint set: bound
// conjuncts box each variable inside [-oracleBox, oracleBox], then one to
// four further conjuncts, some negated, mix linear relations with division
// and modulo by nonzero constants of either sign, the ls4 shape
// k % (v / c), and division and modulo by terms that can be 0. Boxes are
// often a few values wide, and a relation's constant is its left side's
// value at a random point of the box, give or take one, so relations cut
// the box near their edges: an off-by-one range rule then drops the only
// solutions.
func genOracleCase(r *rand.Rand) oracleCase {
	names := []string{"x", "y"}[:1+r.Intn(2)]
	oc := oracleCase{vars: names, lo: map[string]int64{}, hi: map[string]int64{}}
	point := map[string]int64{}
	for _, n := range names {
		lo := int64(r.Intn(2*oracleBox+1) - oracleBox)
		width := int(oracleBox - lo)
		if r.Intn(2) == 0 {
			width = min(width, 4)
		}
		hi := lo + int64(r.Intn(width+1))
		oc.lo[n], oc.hi[n] = lo, hi
		point[n] = lo + r.Int63n(hi-lo+1)
		oc.cs = append(oc.cs,
			expr.Binary(expr.OpGe, v(n), c(lo)),
			expr.Binary(expr.OpLe, v(n), c(hi)))
	}
	pick := func() *expr.Expr { return v(names[r.Intn(len(names))]) }
	divisor := func() int64 {
		d := int64(1 + r.Intn(9))
		if r.Intn(3) == 0 {
			d = -d
		}
		return d
	}
	rels := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		var lhs *expr.Expr
		switch r.Intn(6) {
		case 0: // linear
			lhs = expr.Binary(expr.OpMul, c(int64(r.Intn(7)-3)), pick())
			if r.Intn(2) == 0 {
				lhs = expr.Binary(expr.OpAdd, lhs, expr.Binary(expr.OpMul, c(int64(r.Intn(7)-3)), pick()))
			}
		case 1:
			lhs = expr.Binary(expr.OpDiv, pick(), c(divisor()))
		case 2:
			lhs = expr.Binary(expr.OpMod, pick(), c(divisor()))
		case 3: // the ls4 shape
			lhs = expr.Binary(expr.OpMod, c(int64(r.Intn(13))), expr.Binary(expr.OpDiv, pick(), c(divisor())))
		case 4:
			lhs = expr.Binary(expr.OpDiv, pick(), pick())
		default:
			lhs = expr.Binary(expr.OpMod, pick(), expr.Binary(expr.OpSub, pick(), c(int64(r.Intn(9)-4))))
		}
		k, err := lhs.Eval(point)
		if err != nil {
			k = int64(r.Intn(13) - 6)
		}
		conj := expr.Binary(rels[r.Intn(len(rels))], lhs, c(k+int64(r.Intn(3)-1)))
		if r.Intn(4) == 0 {
			conj = expr.Not(conj)
		}
		oc.cs = append(oc.cs, conj)
	}
	return oc
}

// satisfies reports whether every conjunct evaluates without error to
// nonzero under env.
func satisfies(cs []*expr.Expr, env map[string]int64) bool {
	for _, cc := range cs {
		if r, err := cc.Eval(env); err != nil || r == 0 {
			return false
		}
	}
	return true
}

// bruteSat enumerates the case's box for a satisfying assignment.
func (oc oracleCase) bruteSat() bool {
	env := map[string]int64{}
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(oc.vars) {
			return satisfies(oc.cs, env)
		}
		n := oc.vars[i]
		for x := oc.lo[n]; x <= oc.hi[n]; x++ {
			env[n] = x
			if walk(i + 1) {
				return true
			}
		}
		return false
	}
	return walk(0)
}

// TestDivisionOracle checks the solver against brute force on generated
// components with division and modulo, the operators its bounds
// propagation does not read through and its range refutation does. Each
// case goes through two solvers. The first publishes to an in-memory
// persistent tier, which is all the second has, so verdicts served from
// the persistent tier are checked as well as solved ones. Unknown is
// allowed (it is the budget's answer); a Sat whose model fails
// evaluation, a Sat brute force refutes, and an Unsat brute force
// satisfies are not.
func TestDivisionOracle(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	persist := newMapPersist()
	solvers := []*Solver{New(), New()}
	for _, s := range solvers {
		s.Persist = persist
	}
	const cases = 3000
	counts := map[Result]int{}
	for i := 0; i < cases; i++ {
		oc := genOracleCase(r)
		want := oc.bruteSat()
		for si, s := range solvers {
			res, model := s.Check(oc.cs)
			switch {
			case res == Sat && !satisfies(oc.cs, model):
				t.Fatalf("case %d, solver %d: Sat model %v does not satisfy %v", i, si, model, oc.cs)
			case res == Sat && !want:
				t.Fatalf("case %d, solver %d: Sat, but brute force refutes %v", i, si, oc.cs)
			case res == Unsat && want:
				t.Fatalf("case %d, solver %d: Unsat, but brute force satisfies %v", i, si, oc.cs)
			}
			if si == 0 {
				counts[res]++
			}
		}
	}
	if solvers[1].PersistentHits == 0 {
		t.Fatal("the second solver took no answer from the persistent tier: the test no longer checks it")
	}
	t.Logf("%d cases: %d sat, %d unsat, %d unknown; second solver: %d persistent hits, %d rejects",
		cases, counts[Sat], counts[Unsat], counts[Unknown],
		solvers[1].PersistentHits, solvers[1].VerifyRejects)
}
