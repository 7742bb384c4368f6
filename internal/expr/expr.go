// Package expr implements the symbolic term language used throughout ESD.
//
// Terms are immutable, hash-consed DAGs over 64-bit signed integers:
// constants, named symbolic variables, unary and binary operators, and
// comparisons (which evaluate to 0 or 1). Construction performs on-the-fly
// algebraic simplification and interns the result (intern.go), so
// structurally equal terms are pointer-equal, Hash is a field read, and
// every node carries its free-variable set. Substitution (subst.go) is
// memoized by node identity and short-circuits on the cached var-sets. The
// constraint solver (internal/solver) decides satisfiability of
// conjunctions of boolean-valued terms.
package expr

import (
	"fmt"
	"strings"
)

// Op identifies a term operator.
type Op int

// Operators. Comparison operators yield 0 or 1.
const (
	OpConst Op = iota // leaf: constant
	OpVar             // leaf: symbolic variable

	OpAdd
	OpSub
	OpMul
	OpDiv // signed division; division by zero is a path-infeasible event handled by the VM
	OpMod
	OpAnd // bitwise and
	OpOr  // bitwise or
	OpXor
	OpShl
	OpShr // arithmetic shift right

	OpEq
	OpNe
	OpLt // signed <
	OpLe
	OpGt
	OpGe

	OpNeg // unary minus
	OpNot // logical not: 1 if operand == 0 else 0
	OpBNot

	OpLAnd // logical and over {0,1}
	OpLOr  // logical or over {0,1}

	OpIte // if-then-else: Cond ? A : B
)

var opNames = map[Op]string{
	OpConst: "const", OpVar: "var",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpNeg: "neg", OpNot: "!", OpBNot: "~",
	OpLAnd: "&&", OpLOr: "||", OpIte: "ite",
}

// String returns the operator's source-level spelling.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Expr is an immutable, interned symbolic term: structurally equal terms
// are represented by the same pointer. A nil *Expr is invalid. The
// exported fields are read-only — mutating a node corrupts the intern
// table for every holder of the pointer.
type Expr struct {
	Op   Op
	C    int64  // OpConst value
	Name string // OpVar name; unique per symbolic input
	A, B *Expr  // operands (A for unary; A,B for binary; Cond in A for Ite)
	T, F *Expr  // Ite branches

	hash uint64    // structural hash, computed at construction
	skey StructKey // canonical 128-bit structural fingerprint (structkey.go)
	vars []string  // cached free-variable names, sorted (intern.go)
}

// Const returns a constant term.
func Const(v int64) *Expr {
	if v >= constCacheMin && v <= constCacheMax {
		return constCache[v-constCacheMin]
	}
	return intern(OpConst, v, "", nil, nil, nil, nil)
}

// Bool returns the constant 1 or 0 for b.
func Bool(b bool) *Expr {
	if b {
		return Const(1)
	}
	return Const(0)
}

// Var returns a symbolic variable term with the given name.
func Var(name string) *Expr {
	return intern(OpVar, 0, name, nil, nil, nil, nil)
}

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (int64, bool) {
	if e.Op == OpConst {
		return e.C, true
	}
	return 0, false
}

// IsBoolOp reports whether e's operator always yields 0 or 1.
func (e *Expr) IsBoolOp() bool {
	switch e.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpNot, OpLAnd, OpLOr:
		return true
	case OpConst:
		return e.C == 0 || e.C == 1
	}
	return false
}

// Hash returns a structural hash of the term.
func (e *Expr) Hash() uint64 { return e.hash }

// Equal reports structural equality. Interning makes this a pointer
// comparison.
func (e *Expr) Equal(o *Expr) bool { return e == o }

func evalBinConst(op Op, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		if b < 0 || b > 63 {
			return 0, false
		}
		return a << uint(b), true
	case OpShr:
		if b < 0 || b > 63 {
			return 0, false
		}
		return a >> uint(b), true
	case OpEq:
		return b2i(a == b), true
	case OpNe:
		return b2i(a != b), true
	case OpLt:
		return b2i(a < b), true
	case OpLe:
		return b2i(a <= b), true
	case OpGt:
		return b2i(a > b), true
	case OpGe:
		return b2i(a >= b), true
	case OpLAnd:
		return b2i(a != 0 && b != 0), true
	case OpLOr:
		return b2i(a != 0 || b != 0), true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// linCoef is one variable's coefficient in a linear form.
type linCoef struct {
	name string
	c    int64
}

// linTerm is a bounded-depth linear decomposition: sum(c*name) + k, its
// coefficients sorted by name. A coefficient may be zero: scaling wraps,
// and plus keeps its left operand's zeros (see plus).
type linTerm struct {
	co []linCoef
	k  int64
}

// linBufSize is the number of coefficients foldLinear's forms hold on the
// stack before their scratch spills to the heap; the shallow cancellations
// it exists for use a handful.
const linBufSize = 16

// linearOf extracts a linear form from small Add/Sub/Mul-const/Neg trees,
// appending its coefficients to buf (returned, possibly grown). The form is
// a window of buf that no other form shares, so the caller may scale it in
// place. ok is false for anything outside that fragment (or too deep to be
// worth scanning at construction time).
func linearOf(e *Expr, depth int, buf []linCoef) (linTerm, []linCoef, bool) {
	if depth <= 0 {
		return linTerm{}, buf, false
	}
	switch e.Op {
	case OpConst:
		return linTerm{k: e.C}, buf, true
	case OpVar:
		buf = append(buf, linCoef{e.Name, 1})
		return linTerm{co: buf[len(buf)-1 : len(buf) : len(buf)]}, buf, true
	case OpNeg:
		l, buf, ok := linearOf(e.A, depth-1, buf)
		if !ok {
			return linTerm{}, buf, false
		}
		return l.scaled(-1), buf, true
	case OpAdd, OpSub:
		l1, buf, ok := linearOf(e.A, depth-1, buf)
		if !ok {
			return linTerm{}, buf, false
		}
		l2, buf, ok := linearOf(e.B, depth-1, buf)
		if !ok {
			return linTerm{}, buf, false
		}
		if e.Op == OpSub {
			l2 = l2.scaled(-1)
		}
		l, buf := l1.plus(l2, buf)
		return l, buf, true
	case OpMul:
		if c, ok := e.B.IsConst(); ok {
			if l, buf, ok := linearOf(e.A, depth-1, buf); ok {
				return l.scaled(c), buf, true
			}
		}
		if c, ok := e.A.IsConst(); ok {
			if l, buf, ok := linearOf(e.B, depth-1, buf); ok {
				return l.scaled(c), buf, true
			}
		}
	}
	return linTerm{}, buf, false
}

// scaled multiplies l by c in place (coefficients that wrap to zero stay).
func (l linTerm) scaled(c int64) linTerm {
	for i := range l.co {
		l.co[i].c *= c
	}
	l.k *= c
	return l
}

// plus appends the sum l+o to buf. A variable only l mentions keeps its
// coefficient even when it is zero; one o mentions is dropped when its
// summed coefficient is zero.
func (l linTerm) plus(o linTerm, buf []linCoef) (linTerm, []linCoef) {
	start := len(buf)
	i, j := 0, 0
	for i < len(l.co) || j < len(o.co) {
		switch {
		case j == len(o.co) || (i < len(l.co) && l.co[i].name < o.co[j].name):
			buf = append(buf, l.co[i])
			i++
		case i == len(l.co) || o.co[j].name < l.co[i].name:
			if o.co[j].c != 0 {
				buf = append(buf, o.co[j])
			}
			j++
		default:
			if c := l.co[i].c + o.co[j].c; c != 0 {
				buf = append(buf, linCoef{l.co[i].name, c})
			}
			i++
			j++
		}
	}
	return linTerm{co: buf[start:len(buf):len(buf)], k: l.k + o.k}, buf
}

// unionSize counts the distinct variables of two sorted coefficient lists.
func unionSize(a, b []linCoef) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].name < b[j].name:
			i++
		case b[j].name < a[i].name:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n + len(a) - i + len(b) - j
}

// linearDepth bounds the construction-time linear scan: deep chains are
// the solver's job, but shallow cancellations ((x+a)-(x+b)) are extremely
// common in array-index and comparison code and fold here.
const linearDepth = 6

// foldLinear rebuilds an Add/Sub term in canonical form when doing so
// eliminates variables (e.g. (seed+3) - (seed+40) → -37).
func foldLinear(op Op, a, b *Expr) (*Expr, bool) {
	var arr [linBufSize]linCoef
	la, buf, ok := linearOf(a, linearDepth, arr[:0])
	if !ok {
		return nil, false
	}
	lb, buf, ok := linearOf(b, linearDepth, buf)
	if !ok {
		return nil, false
	}
	if op == OpSub {
		lb = lb.scaled(-1)
	}
	sum, _ := la.plus(lb, buf)
	// Only rebuild when the combination removed variables; otherwise keep
	// the user's structure (cheaper than re-normalizing everything).
	if len(sum.co) >= unionSize(la.co, lb.co) {
		return nil, false
	}
	switch len(sum.co) {
	case 0:
		return Const(sum.k), true
	case 1:
		var t *Expr = Var(sum.co[0].name)
		if c := sum.co[0].c; c != 1 {
			t = intern(OpMul, 0, "", t, Const(c), nil, nil)
		}
		if sum.k == 0 {
			return t, true
		}
		return intern(OpAdd, 0, "", t, Const(sum.k), nil, nil), true
	}
	return nil, false
}

// Binary builds a binary term, constant-folding and simplifying.
func Binary(op Op, a, b *Expr) *Expr {
	av, aok := a.IsConst()
	bv, bok := b.IsConst()
	if aok && bok {
		if v, ok := evalBinConst(op, av, bv); ok {
			return Const(v)
		}
	}
	if op == OpAdd || op == OpSub {
		if folded, ok := foldLinear(op, a, b); ok {
			return folded
		}
	}
	// Identity and annihilator simplifications.
	switch op {
	case OpAdd:
		if aok && av == 0 {
			return b
		}
		if bok && bv == 0 {
			return a
		}
	case OpSub:
		if bok && bv == 0 {
			return a
		}
		if a.Equal(b) {
			return Const(0)
		}
	case OpMul:
		if aok && av == 1 {
			return b
		}
		if bok && bv == 1 {
			return a
		}
		if (aok && av == 0) || (bok && bv == 0) {
			return Const(0)
		}
	case OpDiv:
		if bok && bv == 1 {
			return a
		}
	case OpAnd:
		if (aok && av == 0) || (bok && bv == 0) {
			return Const(0)
		}
	case OpOr, OpXor:
		if aok && av == 0 {
			return b
		}
		if bok && bv == 0 {
			return a
		}
	case OpShl, OpShr:
		if bok && bv == 0 {
			return a
		}
	case OpEq:
		if a.Equal(b) {
			return Const(1)
		}
	case OpNe:
		if a.Equal(b) {
			return Const(0)
		}
	case OpLt, OpGt:
		if a.Equal(b) {
			return Const(0)
		}
	case OpLe, OpGe:
		if a.Equal(b) {
			return Const(1)
		}
	case OpLAnd:
		if aok {
			if av == 0 {
				return Const(0)
			}
			return truth(b)
		}
		if bok {
			if bv == 0 {
				return Const(0)
			}
			return truth(a)
		}
	case OpLOr:
		if aok {
			if av != 0 {
				return Const(1)
			}
			return truth(b)
		}
		if bok {
			if bv != 0 {
				return Const(1)
			}
			return truth(a)
		}
	}
	// Normalize constant to the right for commutative comparisons with
	// constant on the left: c < x  ==>  x > c, etc. This helps the solver's
	// pattern matching.
	if aok && !bok {
		switch op {
		case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
			a, b = b, a
		case OpLt:
			return Binary(OpGt, b, a)
		case OpLe:
			return Binary(OpGe, b, a)
		case OpGt:
			return Binary(OpLt, b, a)
		case OpGe:
			return Binary(OpLe, b, a)
		}
	}
	return intern(op, 0, "", a, b, nil, nil)
}

// truth coerces a term to {0,1}: returns e if already boolean, else e != 0.
func truth(e *Expr) *Expr {
	if e.IsBoolOp() {
		return e
	}
	return Binary(OpNe, e, Const(0))
}

// Unary builds a unary term with simplification.
func Unary(op Op, a *Expr) *Expr {
	if v, ok := a.IsConst(); ok {
		switch op {
		case OpNeg:
			return Const(-v)
		case OpNot:
			return Bool(v == 0)
		case OpBNot:
			return Const(^v)
		}
	}
	switch op {
	case OpNot:
		// !!x over booleans; !(a==b) => a!=b, etc.
		switch a.Op {
		case OpNot:
			return truth(a.A)
		case OpEq:
			return Binary(OpNe, a.A, a.B)
		case OpNe:
			return Binary(OpEq, a.A, a.B)
		case OpLt:
			return Binary(OpGe, a.A, a.B)
		case OpLe:
			return Binary(OpGt, a.A, a.B)
		case OpGt:
			return Binary(OpLe, a.A, a.B)
		case OpGe:
			return Binary(OpLt, a.A, a.B)
		}
	case OpNeg:
		if a.Op == OpNeg {
			return a.A
		}
	case OpBNot:
		if a.Op == OpBNot {
			return a.A
		}
	}
	return intern(op, 0, "", a, nil, nil, nil)
}

// Ite builds cond ? t : f with simplification.
func Ite(cond, t, f *Expr) *Expr {
	if v, ok := cond.IsConst(); ok {
		if v != 0 {
			return t
		}
		return f
	}
	if t == f {
		return t
	}
	return intern(OpIte, 0, "", cond, nil, t, f)
}

// Not returns the logical negation of e (coerced to boolean).
func Not(e *Expr) *Expr { return Unary(OpNot, truth(e)) }

// Truth returns e coerced to a {0,1} boolean term.
func Truth(e *Expr) *Expr { return truth(e) }

// Eval evaluates e under the given variable assignment. It returns an error
// for unbound variables or undefined arithmetic (division by zero).
func (e *Expr) Eval(env map[string]int64) (int64, error) {
	switch e.Op {
	case OpConst:
		return e.C, nil
	case OpVar:
		v, ok := env[e.Name]
		if !ok {
			return 0, fmt.Errorf("expr: unbound variable %q", e.Name)
		}
		return v, nil
	case OpNeg, OpNot, OpBNot:
		a, err := e.A.Eval(env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case OpNeg:
			return -a, nil
		case OpNot:
			return b2i(a == 0), nil
		default:
			return ^a, nil
		}
	case OpIte:
		c, err := e.A.Eval(env)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return e.T.Eval(env)
		}
		return e.F.Eval(env)
	default:
		a, err := e.A.Eval(env)
		if err != nil {
			return 0, err
		}
		b, err := e.B.Eval(env)
		if err != nil {
			return 0, err
		}
		v, ok := evalBinConst(e.Op, a, b)
		if !ok {
			return 0, fmt.Errorf("expr: undefined %s with operands %d, %d", e.Op, a, b)
		}
		return v, nil
	}
}

// Vars returns the names of e's free variables, deduplicated and sorted.
// The set is cached at construction, so this is a field read. The slice
// may be shared with e's subterms: callers must not modify it.
func (e *Expr) Vars() []string { return e.vars }

// NumVars returns the size of e's free-variable set.
func (e *Expr) NumVars() int { return len(e.vars) }

// HasVar reports whether the named variable occurs free in e, using the
// cached variable set (no tree walk).
func (e *Expr) HasVar(name string) bool { return hasVar(e.vars, name) }

// Substitute returns e with every occurrence of variable name replaced by
// replacement, re-simplifying along the way. For repeated substitution of
// the same binding across several terms, build one Subst and Apply it so
// the memo is shared.
func (e *Expr) Substitute(name string, replacement *Expr) *Expr {
	return NewSubst(name, replacement).Apply(e)
}

// String renders the term in infix form.
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b)
	return b.String()
}

func (e *Expr) write(b *strings.Builder) {
	switch e.Op {
	case OpConst:
		fmt.Fprintf(b, "%d", e.C)
	case OpVar:
		b.WriteString(e.Name)
	case OpNeg:
		b.WriteString("-(")
		e.A.write(b)
		b.WriteString(")")
	case OpNot:
		b.WriteString("!(")
		e.A.write(b)
		b.WriteString(")")
	case OpBNot:
		b.WriteString("~(")
		e.A.write(b)
		b.WriteString(")")
	case OpIte:
		b.WriteString("(")
		e.A.write(b)
		b.WriteString(" ? ")
		e.T.write(b)
		b.WriteString(" : ")
		e.F.write(b)
		b.WriteString(")")
	default:
		b.WriteString("(")
		e.A.write(b)
		b.WriteString(" ")
		b.WriteString(e.Op.String())
		b.WriteString(" ")
		e.B.write(b)
		b.WriteString(")")
	}
}
