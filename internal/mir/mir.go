// Package mir defines ESD's intermediate representation.
//
// MIR plays the role LLVM bitcode plays in the paper: a register-based,
// explicitly-control-flowed, word-granular instruction set that the static
// analyses (internal/cfa, internal/dist) inspect and the symbolic VM
// (internal/symex) executes. Like clang -O0 output, locals live in alloca'd
// stack slots accessed through load/store, so there are no phi nodes.
//
// A Program is a set of Funcs plus Globals. A Func is a list of Blocks;
// each Block is a straight-line instruction list whose final instruction is
// a terminator (Br, Jmp, Ret, or Abort). Thread and synchronization
// operations are first-class opcodes because the schedule synthesizer needs
// to see them.
package mir

import (
	"fmt"
	"strings"
)

// Opcode identifies a MIR instruction.
type Opcode int

// The MIR instruction set.
const (
	Nop Opcode = iota

	Const      // Dst = Imm
	Bin        // Dst = A <ALU> B
	Un         // Dst = <ALU> A
	Alloca     // Dst = &new stack object of Imm cells (freed at function return)
	Load       // Dst = *(A + B)            (A pointer, B offset)
	Store      // *(A + B) = C              (A pointer, B offset, C value)
	GlobalAddr // Dst = &global named Sym
	Call       // Dst = Sym(Args...); indirect when Sym=="" and A holds a function value
	Ret        // return A (A may be None)
	Br         // if A != 0 goto Then else goto Else
	Jmp        // goto Then
	FuncAddr   // Dst = function value for Sym (for indirect calls)

	// Environment and memory intrinsics (the Klee environment models).
	Input   // Dst = fresh symbolic word named Sym
	Getchar // Dst = next symbolic stdin byte
	Getenv  // Dst = pointer to the (symbolic) value of env var Sym
	Print   // print A (debugging aid; no effect on synthesis)
	Malloc  // Dst = pointer to new heap object of A cells
	Free    // free object pointed to by A
	Assert  // if A == 0 the program fails (wrong-output/assert failure)
	Abort   // unconditional crash with message Sym

	// Threads and synchronization (POSIX-thread model of §6.1).
	ThreadCreate // Dst = tid; starts Sym(A) in a new thread (A optional arg)
	ThreadJoin   // join thread A
	MutexInit    // init mutex at address A
	MutexLock    // lock mutex at address A
	MutexUnlock  // unlock mutex at address A
	CondWait     // wait on condvar at A with mutex at B
	CondSignal   // signal condvar at A
	CondBroadcast
	Yield // scheduling hint; a preemption point with no other effect
)

var opcodeNames = map[Opcode]string{
	Nop: "nop", Const: "const", Bin: "bin", Un: "un", Alloca: "alloca",
	Load: "load", Store: "store", GlobalAddr: "gaddr", Call: "call",
	Ret: "ret", Br: "br", Jmp: "jmp", FuncAddr: "faddr",
	Input: "input", Getchar: "getchar", Getenv: "getenv", Print: "print",
	Malloc: "malloc", Free: "free", Assert: "assert", Abort: "abort",
	ThreadCreate: "thread_create", ThreadJoin: "thread_join",
	MutexInit: "mutex_init", MutexLock: "mutex_lock", MutexUnlock: "mutex_unlock",
	CondWait: "cond_wait", CondSignal: "cond_signal", CondBroadcast: "cond_broadcast",
	Yield: "yield",
}

// String returns the mnemonic for the opcode.
func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Opcode) IsTerminator() bool {
	switch o {
	case Ret, Br, Jmp, Abort:
		return true
	}
	return false
}

// IsSync reports whether the opcode is a synchronization operation (a
// deadlock-relevant preemption point, §4.1).
func (o Opcode) IsSync() bool {
	switch o {
	case MutexLock, MutexUnlock, CondWait, CondSignal, CondBroadcast,
		ThreadCreate, ThreadJoin, Yield:
		return true
	}
	return false
}

// IsMemAccess reports whether the opcode reads or writes shared memory (a
// data-race-relevant preemption point, §4.2).
func (o Opcode) IsMemAccess() bool { return o == Load || o == Store }

// WritesDst reports whether the opcode defines its Dst register. For
// opcodes that do not, the Dst field is ignored by the VM and the verifier.
func (o Opcode) WritesDst() bool {
	switch o {
	case Const, Bin, Un, Alloca, Load, GlobalAddr, Call, FuncAddr,
		Input, Getchar, Getenv, Malloc, ThreadCreate:
		return true
	}
	return false
}

// OperandKind discriminates instruction operands.
type OperandKind int

// Operand kinds.
const (
	None OperandKind = iota
	Reg              // virtual register
	Imm              // immediate constant
)

// Operand is a register, an immediate, or absent.
type Operand struct {
	Kind OperandKind
	R    int   // register number when Kind == Reg
	Val  int64 // constant when Kind == Imm
}

// R returns a register operand.
func R(r int) Operand { return Operand{Kind: Reg, R: r} }

// I returns an immediate operand.
func I(v int64) Operand { return Operand{Kind: Imm, Val: v} }

// NoOperand is the absent operand.
var NoOperand = Operand{Kind: None}

// String renders the operand.
func (o Operand) String() string {
	switch o.Kind {
	case Reg:
		return fmt.Sprintf("r%d", o.R)
	case Imm:
		return fmt.Sprintf("%d", o.Val)
	default:
		return "_"
	}
}

// Pos is a source position used for debugger display and bug reports.
type Pos struct {
	File string
	Line int
}

// String renders the position as file:line.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("line %d", p.Line)
	}
	return fmt.Sprintf("%s:%d", p.File, p.Line)
}

// Instr is one MIR instruction.
type Instr struct {
	Op   Opcode
	Dst  int     // destination register; -1 when none
	A    Operand // first operand
	B    Operand // second operand
	C    Operand // third operand (Store value)
	Imm  int64   // Const value / Alloca size
	ALU  int     // expr.Op for Bin/Un (kept as int to avoid an import cycle)
	Sym  string  // callee, global, env var, input name, or abort message
	Args []Operand
	Then int // target block ID (Br true / Jmp)
	Else int // target block ID (Br false)
	Pos  Pos
}

// String renders the instruction for dumps.
func (in *Instr) String() string {
	var b strings.Builder
	if in.Dst >= 0 {
		fmt.Fprintf(&b, "r%d = ", in.Dst)
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case Const:
		fmt.Fprintf(&b, " %d", in.Imm)
	case Alloca:
		fmt.Fprintf(&b, " %d", in.Imm)
	case Bin:
		fmt.Fprintf(&b, "[%d] %s, %s", in.ALU, in.A, in.B)
	case Un:
		fmt.Fprintf(&b, "[%d] %s", in.ALU, in.A)
	case Br:
		fmt.Fprintf(&b, " %s, b%d, b%d", in.A, in.Then, in.Else)
	case Jmp:
		fmt.Fprintf(&b, " b%d", in.Then)
	case Call:
		fmt.Fprintf(&b, " %s(", in.Sym)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteString(")")
	case GlobalAddr, Getenv, Input, FuncAddr, ThreadCreate:
		fmt.Fprintf(&b, " %s", in.Sym)
		if in.A.Kind != None {
			fmt.Fprintf(&b, ", %s", in.A)
		}
	case Abort:
		fmt.Fprintf(&b, " %q", in.Sym)
	default:
		for _, o := range []Operand{in.A, in.B, in.C} {
			if o.Kind != None {
				fmt.Fprintf(&b, " %s", o)
			}
		}
	}
	return b.String()
}

// Block is a basic block. ID is the block's index in its function.
type Block struct {
	ID     int
	Label  string
	Instrs []*Instr
}

// Term returns the block's terminator.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return b.Instrs[len(b.Instrs)-1]
}

// Succs returns the IDs of successor blocks.
func (b *Block) Succs() []int {
	t := b.Term()
	if t == nil {
		return nil
	}
	switch t.Op {
	case Br:
		return []int{t.Then, t.Else}
	case Jmp:
		return []int{t.Then}
	}
	return nil
}

// Func is a MIR function. Registers 0..len(Params)-1 hold arguments on
// entry; NumRegs is the total virtual register count.
type Func struct {
	Name    string
	Params  []string
	NumRegs int
	Blocks  []*Block
	Pos     Pos
}

// NumInstrs returns the total instruction count of the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Global is a program-lifetime object of Size cells, optionally initialized.
type Global struct {
	Name string
	Size int
	Init []int64 // len <= Size; remaining cells start at 0
}

// Program is a complete MIR module.
type Program struct {
	Name    string
	Funcs   map[string]*Func
	Order   []string // function definition order, for deterministic dumps
	Globals []*Global
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Funcs: map[string]*Func{}}
}

// AddFunc registers f, preserving definition order.
func (p *Program) AddFunc(f *Func) {
	if _, dup := p.Funcs[f.Name]; !dup {
		p.Order = append(p.Order, f.Name)
	}
	p.Funcs[f.Name] = f
}

// AddGlobal registers a global object.
func (p *Program) AddGlobal(g *Global) { p.Globals = append(p.Globals, g) }

// Global returns the named global, or nil.
func (p *Program) Global(name string) *Global {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// NumInstrs returns the program's total instruction count. The paper
// reports benchmark sizes in KLOC; for MIR programs we use instructions as
// the LOC-equivalent unit.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// String dumps the whole program in a readable form.
func (p *Program) String() string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s[%d]", g.Name, g.Size)
		if len(g.Init) > 0 {
			fmt.Fprintf(&b, " = %v", g.Init)
		}
		b.WriteString("\n")
	}
	for _, name := range p.Order {
		f := p.Funcs[name]
		fmt.Fprintf(&b, "\nfunc %s(%s) [regs=%d]\n", f.Name, strings.Join(f.Params, ", "), f.NumRegs)
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "b%d: %s\n", blk.ID, blk.Label)
			for _, in := range blk.Instrs {
				fmt.Fprintf(&b, "\t%s\n", in)
			}
		}
	}
	return b.String()
}

// Verify checks structural invariants: every block ends in a terminator,
// branch targets exist, register numbers are in range, direct callees
// exist, and entry blocks are present.
func (p *Program) Verify() error {
	for _, name := range p.Order {
		f := p.Funcs[name]
		if len(f.Blocks) == 0 {
			return fmt.Errorf("mir: func %s has no blocks", name)
		}
		for i, blk := range f.Blocks {
			if blk.ID != i {
				return fmt.Errorf("mir: func %s block %d has ID %d", name, i, blk.ID)
			}
			if len(blk.Instrs) == 0 {
				return fmt.Errorf("mir: func %s block b%d is empty", name, i)
			}
			for j, in := range blk.Instrs {
				isLast := j == len(blk.Instrs)-1
				if in.Op.IsTerminator() != isLast {
					return fmt.Errorf("mir: func %s b%d instr %d (%s): terminator placement", name, i, j, in.Op)
				}
				if err := p.verifyInstr(f, in); err != nil {
					return fmt.Errorf("mir: func %s b%d instr %d: %w", name, i, j, err)
				}
			}
		}
	}
	if _, ok := p.Funcs["main"]; !ok {
		return fmt.Errorf("mir: program %s has no main", p.Name)
	}
	return nil
}

func (p *Program) verifyInstr(f *Func, in *Instr) error {
	checkReg := func(r int) error {
		if r < 0 || r >= f.NumRegs {
			return fmt.Errorf("register r%d out of range (NumRegs=%d)", r, f.NumRegs)
		}
		return nil
	}
	for _, o := range []Operand{in.A, in.B, in.C} {
		if o.Kind == Reg {
			if err := checkReg(o.R); err != nil {
				return err
			}
		}
	}
	for _, o := range in.Args {
		if o.Kind == Reg {
			if err := checkReg(o.R); err != nil {
				return err
			}
		}
	}
	if in.Op.WritesDst() {
		if err := checkReg(in.Dst); err != nil {
			return err
		}
	}
	switch in.Op {
	case Br:
		if in.Then < 0 || in.Then >= len(f.Blocks) || in.Else < 0 || in.Else >= len(f.Blocks) {
			return fmt.Errorf("branch target out of range")
		}
	case Jmp:
		if in.Then < 0 || in.Then >= len(f.Blocks) {
			return fmt.Errorf("jump target out of range")
		}
	case Call:
		if in.Sym != "" {
			if _, ok := p.Funcs[in.Sym]; !ok {
				return fmt.Errorf("call to undefined function %q", in.Sym)
			}
		}
	case ThreadCreate, FuncAddr:
		if _, ok := p.Funcs[in.Sym]; !ok {
			return fmt.Errorf("%s references undefined function %q", in.Op, in.Sym)
		}
	case GlobalAddr:
		if p.Global(in.Sym) == nil {
			return fmt.Errorf("gaddr references undefined global %q", in.Sym)
		}
	}
	return nil
}

// Loc identifies an instruction site: function, block and index within the
// block. It is the unit bug-report stack frames and goals are expressed in.
type Loc struct {
	Fn    string
	Block int
	Index int
}

// String renders the location.
func (l Loc) String() string { return fmt.Sprintf("%s@b%d.%d", l.Fn, l.Block, l.Index) }

// InstrAt returns the instruction at l, or nil if out of range.
func (p *Program) InstrAt(l Loc) *Instr {
	f, ok := p.Funcs[l.Fn]
	if !ok || l.Block < 0 || l.Block >= len(f.Blocks) {
		return nil
	}
	b := f.Blocks[l.Block]
	if l.Index < 0 || l.Index >= len(b.Instrs) {
		return nil
	}
	return b.Instrs[l.Index]
}

// Fingerprint returns a structural hash of the program: two programs with
// equal fingerprints have identical functions, globals, and instruction
// streams (positions included). It keys cross-run analysis caches
// (internal/dist) so harnesses that rebuild the same program — esdexp
// re-running one app across configurations — reuse the analysis.
func (p *Program) Fingerprint() uint64 {
	h := fingerprinter{h: 14695981039346656037}
	h.str(p.Name)
	for _, name := range p.Order {
		f := p.Funcs[name]
		h.str(f.Name)
		for _, param := range f.Params {
			h.str(param)
		}
		h.num(int64(f.NumRegs))
		h.str(f.Pos.File)
		h.num(int64(f.Pos.Line))
		for _, blk := range f.Blocks {
			h.num(int64(blk.ID))
			h.str(blk.Label)
			for _, in := range blk.Instrs {
				h.num(int64(in.Op))
				h.num(int64(in.Dst))
				h.operand(in.A)
				h.operand(in.B)
				h.operand(in.C)
				h.num(in.Imm)
				h.num(int64(in.ALU))
				h.str(in.Sym)
				h.num(int64(len(in.Args)))
				for _, a := range in.Args {
					h.operand(a)
				}
				h.num(int64(in.Then))
				h.num(int64(in.Else))
				h.str(in.Pos.File)
				h.num(int64(in.Pos.Line))
			}
		}
	}
	for _, g := range p.Globals {
		h.str(g.Name)
		h.num(int64(g.Size))
		for _, v := range g.Init {
			h.num(v)
		}
	}
	return h.h
}

// fingerprinter is an FNV-1a accumulator over mixed ints and strings.
type fingerprinter struct{ h uint64 }

const fingerprintPrime = 1099511628211

func (f *fingerprinter) num(v int64) {
	f.h ^= uint64(v)
	f.h *= fingerprintPrime
}

func (f *fingerprinter) str(s string) {
	// Length first so adjacent strings cannot alias each other.
	f.num(int64(len(s)))
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= fingerprintPrime
	}
}

func (f *fingerprinter) operand(o Operand) {
	f.num(int64(o.Kind))
	f.num(int64(o.R))
	f.num(o.Val)
}
