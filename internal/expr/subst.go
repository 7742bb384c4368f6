package expr

// Subst is a memoized single-variable substitution. The memo is keyed by
// node identity (valid because terms are interned) and carries across
// Apply calls, so a constraint set sharing subtrees is rewritten once per
// distinct node — the DAG cost, not the exponential tree cost.
//
// The memo holds its terms until the next Reset, which empties it and
// keeps its storage, so an owner that retargets one Subst for every
// substitution (the solver's case split) allocates the memo once. An owner
// that keeps a Subst across idle periods empties it after each use
// (Reset("", nil)), so the memo never keeps a term from collection.
type Subst struct {
	name string
	repl *Expr
	memo map[*Expr]*Expr
}

// substMemoKeep bounds the memo a Reset keeps: clearing a map costs its
// capacity, not its length, so a memo that grew past this many entries is
// dropped instead of being cleared on every later Reset.
const substMemoKeep = 1024

// NewSubst prepares the substitution name -> replacement.
func NewSubst(name string, replacement *Expr) *Subst {
	return &Subst{name: name, repl: replacement}
}

// Reset retargets s to name -> replacement and empties its memo, keeping
// the memo's storage for the next substitution.
func (s *Subst) Reset(name string, replacement *Expr) {
	s.name, s.repl = name, replacement
	switch n := len(s.memo); {
	case n > substMemoKeep:
		s.memo = nil
	case n > 0:
		clear(s.memo)
	}
}

// Apply returns e with the substitution applied, re-simplifying along the
// way. Terms whose cached variable set misses the name are returned as-is.
func (s *Subst) Apply(e *Expr) *Expr {
	if !hasVar(e.vars, s.name) {
		return e
	}
	if out, ok := s.memo[e]; ok {
		return out
	}
	var out *Expr
	switch e.Op {
	case OpVar:
		out = s.repl // the var-set hit means the name matches
	case OpNeg, OpNot, OpBNot:
		out = Unary(e.Op, s.Apply(e.A))
	case OpIte:
		out = Ite(s.Apply(e.A), s.Apply(e.T), s.Apply(e.F))
	default:
		out = Binary(e.Op, s.Apply(e.A), s.Apply(e.B))
	}
	if s.memo == nil {
		s.memo = map[*Expr]*Expr{}
	}
	s.memo[e] = out
	return out
}
