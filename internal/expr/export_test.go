package expr

// Hash returns a structural hash of the term.
func (e *Expr) Hash() uint64 { return e.hash }

// NumVars returns the size of e's free-variable set.
func (e *Expr) NumVars() int { return len(e.vars) }

// Substitute returns e with every occurrence of variable name replaced by
// replacement, re-simplifying along the way: one binding applied to one
// term, through a Subst of its own.
func (e *Expr) Substitute(name string, replacement *Expr) *Expr {
	return NewSubst(name, replacement).Apply(e)
}
