package symex

import (
	"fmt"

	"esd/internal/expr"
	"esd/internal/mir"
	"esd/internal/solver"
)

func (e *Engine) operand(f *Frame, op mir.Operand) Value {
	switch op.Kind {
	case mir.Reg:
		v := f.Regs[op.R]
		if v.E == nil {
			return IntVal(0) // uninitialized registers read as zero
		}
		return v
	case mir.Imm:
		return IntVal(op.Val)
	default:
		return IntVal(0)
	}
}

func (st *State) advance() {
	f := st.CurThread().Top()
	f.Idx++
}

func (st *State) jumpTo(block int) {
	f := st.CurThread().Top()
	f.Block = block
	f.Idx = 0
}

func (st *State) recordSync(op mir.Opcode, key MutexKey) {
	st.SyncEvents = append(st.SyncEvents, SyncEvent{Tid: st.Cur, Op: op, Key: key, Loc: st.Loc()})
}

// crash marks st crashed at the current instruction.
func (e *Engine) crash(st *State, in *mir.Instr, kind CrashKind, format string, args ...interface{}) []*State {
	st.Status = StateCrashed
	st.Crash = &CrashInfo{
		Kind:    kind,
		Tid:     st.Cur,
		Loc:     st.Loc(),
		Pos:     in.Pos,
		Message: fmt.Sprintf(format, args...),
	}
	st.countStep()
	return e.single(st)
}

// abortState abandons a state the engine cannot reason about (solver
// unknown, unresolvable operation).
func (e *Engine) abortState(st *State, why string) []*State {
	st.Status = StateAborted
	_ = why
	return e.single(st)
}

// withForks returns st followed by the states forked off it this step;
// without forks that is single(st).
func (e *Engine) withForks(st *State, forks []*State) []*State {
	if len(forks) == 0 {
		return e.single(st)
	}
	return append([]*State{st}, forks...)
}

// addConstraint appends c to the path condition and tightens the interval
// box.
func (st *State) addConstraint(c *expr.Expr) {
	if v, ok := c.IsConst(); ok && v != 0 {
		return
	}
	t := expr.Truth(c)
	// Loop bodies re-derive the same branch condition on every iteration;
	// with interned terms a repeat is a pointer match, so a scan of the
	// recent tail dedups the common case for free.
	for i := len(st.Constraints) - 1; i >= 0 && i >= len(st.Constraints)-4; i-- {
		if st.Constraints[i] == t {
			return
		}
	}
	st.Constraints = append(st.Constraints, t)
	st.Box.Assume(t)
}

// feasibleBoth answers the two-sided branch feasibility question, going to
// the solver only when the state's interval box cannot decide (§3.3's
// CPU-intensive satisfiability checks, accelerated).
func (e *Engine) feasibleBoth(st *State, cond *expr.Expr) (mayTrue, mayFalse bool, unknown bool) {
	if v, definite := st.Box.Truth(cond); definite {
		// The box over-approximates the feasible set, so a definite answer
		// is implied by the path constraints.
		return v, !v, false
	}
	mt, rt := e.Solver.MayBeTrue(st.Constraints, cond)
	mf, rf := e.Solver.MayBeTrue(st.Constraints, expr.Not(cond))
	if rt == solver.Unknown || rf == solver.Unknown {
		return false, false, true
	}
	return mt, mf, false
}

// concretize pins a scalar term to one feasible concrete value, adding the
// pinning constraint. ok=false means the path is infeasible or unknown.
func (e *Engine) concretize(st *State, v *expr.Expr) (int64, bool) {
	if c, ok := v.IsConst(); ok {
		return c, true
	}
	// Box fast path: a term the intervals pin to one value needs no solver
	// call and no pinning constraint.
	if lo, hi := st.Box.EvalRange(v); lo == hi {
		return lo, true
	}
	// Only solver-backed pinnings count: the const and box fast paths above
	// are free, and the interesting number is how often a path had to pay a
	// query (and gained a pinning constraint) to make a term concrete.
	e.Stats.Concretizations++
	res, model := e.Solver.Check(st.Constraints)
	if res != solver.Sat {
		return 0, false
	}
	// Eval only consults v's free variables (cached on the interned term),
	// so the env is built from those alone instead of copying the model.
	vars := v.Vars()
	env := make(map[string]int64, len(vars))
	for _, name := range vars {
		env[name] = model[name] // absent vars default to zero
	}
	k, err := v.Eval(env)
	if err != nil {
		return 0, false
	}
	st.addConstraint(expr.Binary(expr.OpEq, v, expr.Const(k)))
	return k, true
}

// mutexKeyOf resolves a value to a mutex/condvar identity.
func (e *Engine) mutexKeyOf(st *State, v Value) (MutexKey, bool) {
	if !v.isPtr() {
		return NoMutex, false
	}
	off, ok := e.concretize(st, v.E)
	if !ok {
		return NoMutex, false
	}
	return MutexKey{Obj: v.ref, Off: off}, true
}

// exec executes one instruction in the current thread.
func (e *Engine) exec(st *State, in *mir.Instr) ([]*State, error) {
	e.Stats.Steps++
	t := st.CurThread()
	f := t.Top()

	switch in.Op {
	case mir.Nop, mir.Print, mir.Yield:
		if in.Op == mir.Print && e.OnPrint != nil {
			e.OnPrint(st, e.operand(f, in.A))
		}
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.Const:
		f.Regs[in.Dst] = IntVal(in.Imm)
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.Bin:
		v, crashMsg := e.evalBin(st, expr.Op(in.ALU), e.operand(f, in.A), e.operand(f, in.B))
		if crashMsg != "" {
			return e.crash(st, in, CrashSegFault, "%s", crashMsg), nil
		}
		// Division needs a zero-divisor split.
		if op := expr.Op(in.ALU); op == expr.OpDiv || op == expr.OpMod {
			return e.execDiv(st, in, op)
		}
		f.Regs[in.Dst] = v
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.Un:
		a := e.operand(f, in.A)
		switch {
		case a.IsScalar():
			f.Regs[in.Dst] = Scalar(expr.Unary(expr.Op(in.ALU), a.E))
		case expr.Op(in.ALU) == expr.OpNot:
			f.Regs[in.Dst] = IntVal(0) // !ptr and !fn are false (non-null)
		default:
			return e.crash(st, in, CrashSegFault, "unary %v applied to non-scalar %s", expr.Op(in.ALU), a), nil
		}
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.Alloca:
		obj := e.stackObject(int(in.Imm))
		st.Mem.Add(obj)
		t.allocas = append(t.allocas, obj.ID)
		f.Regs[in.Dst] = PtrVal(obj.ID, 0)
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.GlobalAddr:
		id := st.GlobalObj(in.Sym)
		if id < 0 {
			return nil, fmt.Errorf("symex: unknown global %q", in.Sym)
		}
		f.Regs[in.Dst] = PtrVal(id, 0)
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.FuncAddr:
		f.Regs[in.Dst] = FnVal(in.Sym)
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.Load:
		return e.execAccess(st, in, false)

	case mir.Store:
		return e.execAccess(st, in, true)

	case mir.Jmp:
		st.jumpTo(in.Then)
		st.countStep()
		return e.single(st), nil

	case mir.Br:
		return e.execBranch(st, in)

	case mir.Call:
		return e.execCall(st, in)

	case mir.Ret:
		return e.execRet(st, in)

	case mir.Assert:
		return e.execAssert(st, in)

	case mir.Abort:
		return e.crash(st, in, CrashAbort, "%s", in.Sym), nil

	case mir.Getchar:
		seq := 0
		for _, r := range st.Inputs {
			if r.Kind == InputGetchar {
				seq++
			}
		}
		name := fmt.Sprintf("stdin:%d", seq)
		if e.Inputs != nil {
			v := e.Inputs.Getchar(seq)
			st.Inputs = append(st.Inputs, InputRecord{Var: name, Kind: InputGetchar, Seq: seq, Concrete: true, Val: v})
			f.Regs[in.Dst] = IntVal(v)
		} else {
			st.Inputs = append(st.Inputs, InputRecord{Var: name, Kind: InputGetchar, Seq: seq})
			v := expr.Var(name)
			st.addConstraint(expr.Binary(expr.OpGe, v, expr.Const(-1)))
			st.addConstraint(expr.Binary(expr.OpLe, v, expr.Const(255)))
			f.Regs[in.Dst] = Scalar(v)
		}
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.Getenv:
		id, ok := st.envBufs[in.Sym]
		if !ok {
			obj := newObject(e.NewObjID(), ObjEnv, envLen, in.Sym)
			var concrete []int64
			if e.Inputs != nil {
				concrete = e.Inputs.Getenv(in.Sym)
			}
			for i := 0; i < envLen-1; i++ {
				name := fmt.Sprintf("env:%s:%d", in.Sym, i)
				// Records are kept in concrete mode too, so that input
				// sequence numbering is identical between synthesis and
				// playback.
				if e.Inputs != nil {
					var cv int64
					if i < len(concrete) {
						cv = concrete[i]
						obj.Cells[i] = IntVal(cv)
					}
					st.Inputs = append(st.Inputs, InputRecord{Var: name, Kind: InputEnv, Name: in.Sym, Seq: i, Concrete: true, Val: cv})
				} else {
					v := expr.Var(name)
					st.addConstraint(expr.Binary(expr.OpGe, v, expr.Const(0)))
					st.addConstraint(expr.Binary(expr.OpLe, v, expr.Const(255)))
					obj.Cells[i] = Scalar(v)
					st.Inputs = append(st.Inputs, InputRecord{Var: name, Kind: InputEnv, Name: in.Sym, Seq: i})
				}
			}
			obj.Cells[envLen-1] = IntVal(0)
			st.Mem.Add(obj)
			st.ownSync()
			st.envBufs[in.Sym] = obj.ID
			id = obj.ID
		}
		f.Regs[in.Dst] = PtrVal(id, 0)
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.Input:
		// Sequence numbers are per input name, so variable identity does
		// not depend on unrelated inputs consumed earlier.
		seq := 0
		for _, r := range st.Inputs {
			if r.Kind == InputNamed && r.Name == in.Sym {
				seq++
			}
		}
		name := fmt.Sprintf("in:%s:%d", in.Sym, seq)
		if e.Inputs != nil {
			v := e.Inputs.Input(in.Sym, seq)
			st.Inputs = append(st.Inputs, InputRecord{Var: name, Kind: InputNamed, Name: in.Sym, Seq: seq, Concrete: true, Val: v})
			f.Regs[in.Dst] = IntVal(v)
		} else {
			st.Inputs = append(st.Inputs, InputRecord{Var: name, Kind: InputNamed, Name: in.Sym, Seq: seq})
			v := expr.Var(name)
			st.addConstraint(expr.Binary(expr.OpGe, v, expr.Const(solver.MinValue)))
			st.addConstraint(expr.Binary(expr.OpLe, v, expr.Const(solver.MaxValue)))
			f.Regs[in.Dst] = Scalar(v)
		}
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.Malloc:
		sz := e.operand(f, in.A)
		if !sz.IsScalar() {
			return e.crash(st, in, CrashSegFault, "malloc with non-scalar size"), nil
		}
		n, ok := e.concretize(st, sz.E)
		if !ok {
			return e.abortState(st, "malloc size unsolvable"), nil
		}
		if n < 1 {
			n = 1
		}
		if n > 1<<20 {
			return e.crash(st, in, CrashAbort, "malloc of %d cells exceeds model limit", n), nil
		}
		obj := newObject(e.NewObjID(), ObjHeap, int(n), "")
		st.Mem.Add(obj)
		f.Regs[in.Dst] = PtrVal(obj.ID, 0)
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.Free:
		v := e.operand(f, in.A)
		if v.IsZero() {
			st.advance()
			st.countStep()
			return e.single(st), nil // free(NULL) is a no-op
		}
		if !v.isPtr() {
			return e.crash(st, in, CrashInvalidFree, "free of non-pointer value %s", v), nil
		}
		off, ok := v.E.IsConst()
		if !ok || off != 0 {
			return e.crash(st, in, CrashInvalidFree, "free of interior pointer obj%d+%s", v.ref, v.E), nil
		}
		var kind ObjKind
		var name string // a freed object is unnamed (stack or heap)
		freed := false
		if obj := st.Mem.Object(v.ref); obj != nil {
			kind, name = obj.Kind, obj.Name
		} else if kind, freed = st.Mem.wasFreed(v.ref); !freed {
			return e.crash(st, in, CrashInvalidFree, "free of unknown object"), nil
		}
		if kind != ObjHeap {
			return e.crash(st, in, CrashInvalidFree, "free of non-heap memory (%v object %q)", kind, name), nil
		}
		if freed {
			return e.crash(st, in, CrashInvalidFree, "double free of obj%d", v.ref), nil
		}
		st.Mem.free(v.ref)
		st.advance()
		st.countStep()
		return e.single(st), nil

	case mir.ThreadCreate:
		return e.execThreadCreate(st, in)
	case mir.ThreadJoin:
		return e.execThreadJoin(st, in)
	case mir.MutexInit, mir.MutexLock, mir.MutexUnlock:
		return e.execMutex(st, in)
	case mir.CondWait, mir.CondSignal, mir.CondBroadcast:
		return e.execCond(st, in)
	}
	return nil, fmt.Errorf("symex: unimplemented opcode %v", in.Op)
}

// evalBin evaluates a binary ALU operation over runtime values, handling
// pointer arithmetic and comparisons. A non-empty second return is a crash
// message (undefined pointer operation).
func (e *Engine) evalBin(st *State, op expr.Op, a, b Value) (Value, string) {
	// Scalar-scalar: pure term construction.
	if a.IsScalar() && b.IsScalar() {
		return Scalar(expr.Binary(op, a.E, b.E)), ""
	}
	// Function values: only equality comparisons. A function value equals
	// exactly the values naming the same function (see Value).
	if a.isFn() || b.isFn() {
		switch op {
		case expr.OpEq:
			return Scalar(expr.Bool(a == b)), ""
		case expr.OpNe:
			return Scalar(expr.Bool(a != b)), ""
		}
		return Value{}, fmt.Sprintf("arithmetic on function value (%v)", op)
	}
	// Pointer cases: E is a pointer's offset, ref its object.
	switch {
	case b.IsScalar(): // pointer op integer
		switch op {
		case expr.OpAdd:
			return Value{E: expr.Binary(expr.OpAdd, a.E, b.E), ref: a.ref}, ""
		case expr.OpSub:
			return Value{E: expr.Binary(expr.OpSub, a.E, b.E), ref: a.ref}, ""
		case expr.OpEq:
			return IntVal(0), "" // a live pointer never equals an integer
		case expr.OpNe:
			return IntVal(1), ""
		}
		return Value{}, fmt.Sprintf("unsupported pointer-integer operation %v", op)
	case a.IsScalar(): // integer op pointer
		switch op {
		case expr.OpAdd:
			return Value{E: expr.Binary(expr.OpAdd, b.E, a.E), ref: b.ref}, ""
		case expr.OpEq:
			return IntVal(0), ""
		case expr.OpNe:
			return IntVal(1), ""
		}
		return Value{}, fmt.Sprintf("unsupported integer-pointer operation %v", op)
	default: // both pointers
		sameObj := a.ref == b.ref
		switch op {
		case expr.OpSub:
			if sameObj {
				return Scalar(expr.Binary(expr.OpSub, a.E, b.E)), ""
			}
			return Value{}, "subtraction of pointers to different objects"
		case expr.OpEq:
			if sameObj {
				return Scalar(expr.Binary(expr.OpEq, a.E, b.E)), ""
			}
			return IntVal(0), ""
		case expr.OpNe:
			if sameObj {
				return Scalar(expr.Binary(expr.OpNe, a.E, b.E)), ""
			}
			return IntVal(1), ""
		case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			if sameObj {
				return Scalar(expr.Binary(op, a.E, b.E)), ""
			}
			return Value{}, "relational comparison of pointers to different objects"
		}
		return Value{}, fmt.Sprintf("unsupported pointer-pointer operation %v", op)
	}
}

// execDiv handles division and modulo with a symbolic divisor: the
// divide-by-zero outcome forks into a crash state (§3.1 crash class).
func (e *Engine) execDiv(st *State, in *mir.Instr, op expr.Op) ([]*State, error) {
	f := st.CurThread().Top()
	a := e.operand(f, in.A)
	b := e.operand(f, in.B)
	if !a.IsScalar() || !b.IsScalar() {
		return e.crash(st, in, CrashSegFault, "division on non-scalar values"), nil
	}
	if c, ok := b.E.IsConst(); ok {
		if c == 0 {
			return e.crash(st, in, CrashDivZero, "division by zero"), nil
		}
		f.Regs[in.Dst] = Scalar(expr.Binary(op, a.E, b.E))
		st.advance()
		st.countStep()
		return e.single(st), nil
	}
	zero := expr.Binary(expr.OpEq, b.E, expr.Const(0))
	mayZero, mayNonZero, unknown := e.feasibleBoth(st, zero)
	if unknown {
		return e.abortState(st, "divisor feasibility unknown"), nil
	}
	var out []*State
	if mayZero {
		crashSt := st
		if mayNonZero {
			crashSt = e.ForkState(st)
		}
		crashSt.addConstraint(zero)
		out = append(out, e.crash(crashSt, in, CrashDivZero, "division by zero")...)
		if !mayNonZero {
			return out, nil
		}
	}
	st.addConstraint(expr.Not(zero))
	f.Regs[in.Dst] = Scalar(expr.Binary(op, a.E, b.E))
	st.advance()
	st.countStep()
	return e.withForks(st, out), nil
}

func (e *Engine) execBranch(st *State, in *mir.Instr) ([]*State, error) {
	f := st.CurThread().Top()
	cond := e.operand(f, in.A)
	var condE *expr.Expr
	switch {
	case cond.IsScalar():
		condE = cond.E
	default:
		condE = expr.Const(1) // pointers and functions are truthy
	}
	if c, ok := condE.IsConst(); ok {
		if c != 0 {
			st.jumpTo(in.Then)
		} else {
			st.jumpTo(in.Else)
		}
		st.countStep()
		return e.single(st), nil
	}
	tcond := expr.Truth(condE)
	mayT, mayF, unknown := e.feasibleBoth(st, tcond)
	switch {
	case unknown:
		return e.abortState(st, "branch feasibility unknown"), nil
	case mayT && mayF:
		e.Stats.BranchForks++
		other := e.ForkState(st)
		other.addConstraint(expr.Not(tcond))
		other.jumpTo(in.Else)
		other.countStep()
		st.addConstraint(tcond)
		st.jumpTo(in.Then)
		st.countStep()
		return []*State{st, other}, nil
	case mayT:
		st.jumpTo(in.Then)
		st.countStep()
		return e.single(st), nil
	case mayF:
		st.jumpTo(in.Else)
		st.countStep()
		return e.single(st), nil
	default:
		// Both sides unsatisfiable: the path condition itself is
		// contradictory; abandon.
		return e.abortState(st, "infeasible path"), nil
	}
}

func (e *Engine) execAccess(st *State, in *mir.Instr, isWrite bool) ([]*State, error) {
	t := st.CurThread()
	f := t.Top()
	base := e.operand(f, in.A)
	offV := e.operand(f, in.B)

	if base.isFn() {
		return e.crash(st, in, CrashSegFault, "dereference of function value"), nil
	}
	if base.IsScalar() {
		if base.IsZero() {
			return e.crash(st, in, CrashSegFault, "NULL pointer dereference"), nil
		}
		return e.crash(st, in, CrashSegFault, "dereference of non-pointer value %s", base), nil
	}
	if !offV.IsScalar() {
		return e.crash(st, in, CrashSegFault, "non-scalar index"), nil
	}
	obj := st.Mem.Object(base.ref)
	if obj == nil {
		if _, freed := st.Mem.wasFreed(base.ref); freed {
			// Freed objects (stack or heap) are unnamed.
			return e.crash(st, in, CrashSegFault, "use of freed memory (obj%d %q)", base.ref, ""), nil
		}
		return e.crash(st, in, CrashSegFault, "dereference of unmapped object"), nil
	}
	off := expr.Binary(expr.OpAdd, base.E, offV.E)
	size := int64(obj.Size)

	var out []*State
	k, isConst := off.IsConst()
	if !isConst {
		inb := expr.Binary(expr.OpLAnd,
			expr.Binary(expr.OpGe, off, expr.Const(0)),
			expr.Binary(expr.OpLt, off, expr.Const(size)))
		mayIn, mayOut, unknown := e.feasibleBoth(st, inb)
		if unknown {
			return e.abortState(st, "access bounds unknown"), nil
		}
		if mayOut {
			crashSt := st
			if mayIn {
				crashSt = e.ForkState(st)
			}
			crashSt.addConstraint(expr.Not(inb))
			out = append(out, e.crash(crashSt, in, CrashOutOfBounds,
				"buffer overflow: offset %s outside object of %d cells (%q)", off, size, obj.Name)...)
			if !mayIn {
				return out, nil
			}
		}
		if !mayIn {
			return append(out, e.abortState(st, "access infeasible")...), nil
		}
		st.addConstraint(inb)
		// Symbolic in-bounds offsets are concretized to one feasible cell
		// (a documented simplification vs. Klee's symbolic reads; the
		// pinning constraint keeps the path sound).
		var ok bool
		k, ok = e.concretize(st, off)
		if !ok {
			return append(out, e.abortState(st, "offset unsolvable")...), nil
		}
	} else if k < 0 || k >= size {
		return e.crash(st, in, CrashOutOfBounds,
			"buffer overflow: offset %d outside object of %d cells (%q)", k, size, obj.Name), nil
	}

	if e.Race != nil {
		e.Race.Record(st, t.ID, obj.ID, k, isWrite, st.Loc(), st.HeldMutexes(t.ID))
	}

	if isWrite {
		val := e.operand(f, in.C)
		if !st.Mem.Write(obj.ID, k, val) {
			return append(out, e.crash(st, in, CrashSegFault, "store failed at obj%d+%d", obj.ID, k)...), nil
		}
	} else {
		v, ok := st.Mem.Read(obj.ID, k)
		if !ok {
			return append(out, e.crash(st, in, CrashSegFault, "load failed at obj%d+%d", obj.ID, k)...), nil
		}
		f.Regs[in.Dst] = v
	}
	st.advance()
	st.countStep()
	return e.withForks(st, out), nil
}

func (e *Engine) execCall(st *State, in *mir.Instr) ([]*State, error) {
	t := st.CurThread()
	f := t.Top()
	var fn *mir.Func
	if in.Sym != "" {
		fn = e.Prog.Funcs[in.Sym]
	} else {
		fv := e.operand(f, in.A)
		if !fv.isFn() {
			return e.crash(st, in, CrashSegFault, "indirect call through non-function value %s", fv), nil
		}
		fn = e.Prog.Funcs[fv.E.Name]
	}
	if fn == nil {
		return e.crash(st, in, CrashSegFault, "call to undefined function"), nil
	}
	if len(in.Args) != len(fn.Params) {
		return e.crash(st, in, CrashSegFault, "call to %s with %d args (want %d)", fn.Name, len(in.Args), len(fn.Params)), nil
	}
	// The arguments are staged before the push, which may move Frames
	// (and with it f).
	regs := t.newRegs(fn.NumRegs)
	for i, a := range in.Args[:min(len(in.Args), len(regs))] {
		regs[i] = e.operand(f, a)
	}
	f.Idx++ // return resumes after the call
	t.pushFrame(Frame{Fn: fn, Regs: regs, RetDst: in.Dst})
	st.countStep()
	return e.single(st), nil
}

func (e *Engine) execRet(st *State, in *mir.Instr) ([]*State, error) {
	t := st.CurThread()
	f := t.Top()
	v := IntVal(0)
	if in.A.Kind != mir.None {
		v = e.operand(f, in.A)
	}
	retDst := f.RetDst
	for _, id := range t.allocas[f.allocaBase:] {
		if o, _ := st.Mem.free(id); o != nil {
			e.recycle(o)
		}
	}
	t.popFrame()
	st.countStep()
	if len(t.Frames) == 0 {
		t.Status = ThreadExited
		t.Result = v
		// Wake joiners.
		for i, o := range st.Threads {
			if o.Status == ThreadBlockedJoin && o.WaitTid == t.ID {
				st.ownThread(i).Status = ThreadRunnable
			}
		}
		if t.ID == 0 {
			// Process exit: main returning ends the program.
			st.Status = StateExited
			st.ExitCode = v
			return e.single(st), nil
		}
		return e.reschedule(st)
	}
	if retDst >= 0 {
		t.Top().Regs[retDst] = v
	}
	return e.single(st), nil
}

func (e *Engine) execAssert(st *State, in *mir.Instr) ([]*State, error) {
	f := st.CurThread().Top()
	cond := e.operand(f, in.A)
	if !cond.IsScalar() {
		st.advance() // non-null pointer asserts trivially hold
		st.countStep()
		return e.single(st), nil
	}
	if c, ok := cond.E.IsConst(); ok {
		if c == 0 {
			return e.crash(st, in, CrashAssert, "assertion failed"), nil
		}
		st.advance()
		st.countStep()
		return e.single(st), nil
	}
	tcond := expr.Truth(cond.E)
	mayPass, mayFail, unknown := e.feasibleBoth(st, tcond)
	if unknown {
		return e.abortState(st, "assert feasibility unknown"), nil
	}
	var out []*State
	if mayFail {
		failSt := st
		if mayPass {
			failSt = e.ForkState(st)
		}
		failSt.addConstraint(expr.Not(tcond))
		out = append(out, e.crash(failSt, in, CrashAssert, "assertion failed")...)
		if !mayPass {
			return out, nil
		}
	}
	st.addConstraint(tcond)
	st.advance()
	st.countStep()
	return e.withForks(st, out), nil
}
