package expr

import "fmt"

// This file is the checkpoint-restore door into the interner. A search
// checkpoint serializes its constraint terms structurally (op, constant,
// name, child indices) and must rebuild them as interned nodes on load —
// possibly in a different process, or in the same process after the
// garbage collector has collected the originals.
//
// Decoding must NOT re-run the simplifying constructors (Binary, Unary,
// Ite): a checkpointed term is already a constructor fixed point, but the
// constructors rewrite *shapes*, and any structural difference between
// the rebuilt term and the original would change downstream shape-
// sensitive reasoning (the solver's interval Box, linear folding) and
// break the resumed run's bit-identity with an uninterrupted one.
// Reintern therefore interns the recorded shape verbatim.

// Reintern returns the canonical interned node for an exact recorded
// shape. It is intended solely for decoding serialized terms: the shape
// must have been produced by this package's constructors at encode time
// (i.e. it is already simplified and canonical), and children must
// already be reinterned. Feeding it shapes that a constructor would have
// rewritten creates non-canonical nodes that alias their simplified
// forms under a different pointer, silently breaking pointer equality.
func Reintern(op Op, c int64, name string, a, b, t, f *Expr) (*Expr, error) {
	switch op {
	case OpConst:
		if a != nil || b != nil || t != nil || f != nil || name != "" {
			return nil, fmt.Errorf("expr: malformed const shape")
		}
		// Route through the constructor for the small-constant fast path;
		// Const performs no rewriting, so the shape is preserved.
		return Const(c), nil
	case OpVar:
		if name == "" {
			return nil, fmt.Errorf("expr: var shape with empty name")
		}
		if a != nil || b != nil || t != nil || f != nil {
			return nil, fmt.Errorf("expr: malformed var shape")
		}
		return Var(name), nil
	case OpNeg, OpNot, OpBNot:
		if a == nil || b != nil || t != nil || f != nil {
			return nil, fmt.Errorf("expr: malformed unary %s shape", op)
		}
		return intern(op, 0, "", a, nil, nil, nil), nil
	case OpIte:
		if a == nil || t == nil || f == nil || b != nil {
			return nil, fmt.Errorf("expr: malformed ite shape")
		}
		return intern(OpIte, 0, "", a, nil, t, f), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLAnd, OpLOr:
		if a == nil || b == nil || t != nil || f != nil {
			return nil, fmt.Errorf("expr: malformed binary %s shape", op)
		}
		return intern(op, 0, "", a, b, nil, nil), nil
	}
	return nil, fmt.Errorf("expr: unknown op %d in serialized term", int(op))
}
