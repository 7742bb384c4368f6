package expr

import (
	"math"
	"math/rand"
	"testing"
)

// edgeValues are where folding and evaluation would first part ways: zero
// and the units, the solver's 64-wide enumeration edge, its value universe
// bound (2^40), and the int64 extremes, where arithmetic wraps and division
// overflows.
var edgeValues = []int64{0, 1, -1, 63, -63, 64, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}

var (
	binaryOps = []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLAnd, OpLOr}
	unaryOps = []Op{OpNeg, OpNot, OpBNot}
)

// edgeValue draws an edge value, or a small one that keeps shifts defined.
func edgeValue(r *rand.Rand) int64 {
	if r.Intn(3) == 0 {
		return int64(r.Intn(17) - 8)
	}
	return edgeValues[r.Intn(len(edgeValues))]
}

// randomOneVarTerm builds a term over the variable x, at most depth
// operators deep, from every binary and unary operator and Ite.
func randomOneVarTerm(r *rand.Rand, depth int) *Expr {
	if depth == 0 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			return Var("x")
		}
		return Const(edgeValue(r))
	}
	switch n := r.Intn(len(binaryOps) + len(unaryOps) + 1); {
	case n < len(binaryOps):
		return Binary(binaryOps[n], randomOneVarTerm(r, depth-1), randomOneVarTerm(r, depth-1))
	case n < len(binaryOps)+len(unaryOps):
		return Unary(unaryOps[n-len(binaryOps)], randomOneVarTerm(r, depth-1))
	default:
		return Ite(randomOneVarTerm(r, depth-1), randomOneVarTerm(r, depth-1), randomOneVarTerm(r, depth-1))
	}
}

// TestEvalAgreesWithSubstitution pins what the solver's evaluated leaves
// rest on: substituting a constant for a term's only variable folds it
// through Binary, Unary and Ite, whose folding is the evalBinConst that
// Eval uses. Wherever Eval succeeds, Substitute must return the interned
// Const of its result, pointer for pointer.
func TestEvalAgreesWithSubstitution(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	env := map[string]int64{}
	checked := 0
	for i := 0; i < 16000; i++ {
		e := randomOneVarTerm(r, 4)
		values := append(edgeValues[:len(edgeValues):len(edgeValues)], edgeValue(r), edgeValue(r), edgeValue(r))
		for _, v := range values {
			env["x"] = v
			want, err := e.Eval(env)
			if err != nil {
				continue
			}
			checked++
			if got := e.Substitute("x", Const(v)); got != Const(want) {
				t.Fatalf("%v at x=%d: Eval gives %d, Substitute gives %v", e, v, want, got)
			}
		}
	}
	t.Logf("%d agreements checked", checked)
}
