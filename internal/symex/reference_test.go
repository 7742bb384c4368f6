package symex

import (
	"fmt"
	"sort"

	"esd/internal/expr"
	"esd/internal/mir"
	"esd/internal/solver"
)

// This file keeps the reflection codec that checkpoints used before the
// streaming one in serial.go, as the oracle the streaming codec is tested
// against: a tree of Serial* values per pool, built from the states and
// marshaled by encoding/json, and decoded the same way back. Both must
// write the same bytes and decode the same states.

// SerialExpr is one interned term's shape. Child fields are 1-based
// indices into the expression table (0 = nil); children always precede
// parents.
type SerialExpr struct {
	Op int    `json:"op"`
	C  int64  `json:"c,omitempty"`
	N  string `json:"n,omitempty"`
	A  int    `json:"a,omitempty"`
	B  int    `json:"b,omitempty"`
	T  int    `json:"t,omitempty"`
	F  int    `json:"f,omitempty"`
}

// SerialValue is one runtime value. E and Off are 1-based expression
// indices; P marks pointers (their target object is an object *ID*, which
// the decoded address space resolves, not a table index).
type SerialValue struct {
	E   int    `json:"e,omitempty"`
	P   bool   `json:"p,omitempty"`
	Obj int    `json:"o,omitempty"`
	Off int    `json:"f,omitempty"`
	Fn  string `json:"fn,omitempty"`
}

// SerialObject is one COW memory object, or, marked Freed, one entry of
// an address space's freed log (ID and kind; no cells).
type SerialObject struct {
	ID    int           `json:"id"`
	Kind  int           `json:"kind"`
	Size  int           `json:"size"`
	Name  string        `json:"name,omitempty"`
	Freed bool          `json:"freed,omitempty"`
	Cells []SerialValue `json:"cells"`
}

// SerialFrame is one activation record (Fn resolved by name on decode).
type SerialFrame struct {
	Fn      string        `json:"fn"`
	Block   int           `json:"block"`
	Idx     int           `json:"idx"`
	Regs    []SerialValue `json:"regs"`
	RetDst  int           `json:"ret_dst"`
	Allocas []int         `json:"allocas,omitempty"`
}

// SerialThread is one simulated thread.
type SerialThread struct {
	ID        int           `json:"id"`
	Frames    []SerialFrame `json:"frames"`
	Status    int           `json:"status"`
	WaitMutex MutexKey      `json:"wait_mutex"`
	WaitCond  MutexKey      `json:"wait_cond"`
	WaitTid   int           `json:"wait_tid"`
	Result    SerialValue   `json:"result"`
	CondPhase int           `json:"cond_phase,omitempty"`
}

// SerialMutex is one mutex's tracked holder.
type SerialMutex struct {
	Key    MutexKey `json:"key"`
	Holder int      `json:"holder"`
	AcqLoc mir.Loc  `json:"acq_loc"`
}

// SerialCondWaiters is one condvar's FIFO waiter list.
type SerialCondWaiters struct {
	Key  MutexKey `json:"key"`
	Tids []int    `json:"tids"`
}

// SerialSnapshot is one K_S snapshot reference (1-based state index).
type SerialSnapshot struct {
	Key   MutexKey `json:"key"`
	State int      `json:"state"`
}

// SerialNamedID is a (name, object ID) binding for globals and env bufs.
type SerialNamedID struct {
	Name string `json:"name"`
	ID   int    `json:"id"`
}

// SerialApproval mirrors syncApproval.
type SerialApproval struct {
	Tid int     `json:"tid"`
	Loc mir.Loc `json:"loc"`
}

// SerialState is one execution state. Mem lists 1-based object-table
// indices; Constraints lists 1-based expression indices in path order.
type SerialState struct {
	ID           int                 `json:"id"`
	Mem          []int               `json:"mem"`
	Threads      []SerialThread      `json:"threads"`
	Cur          int                 `json:"cur"`
	Constraints  []int               `json:"constraints,omitempty"`
	Inputs       []InputRecord       `json:"inputs,omitempty"`
	Mutexes      []SerialMutex       `json:"mutexes,omitempty"`
	CondWaiters  []SerialCondWaiters `json:"cond_waiters,omitempty"`
	Status       int                 `json:"status,omitempty"`
	Crash        *CrashInfo          `json:"crash,omitempty"`
	Deadlock     *DeadlockInfo       `json:"deadlock,omitempty"`
	ExitCode     SerialValue         `json:"exit_code"`
	Schedule     []SchedSegment      `json:"schedule,omitempty"`
	SyncEvents   []SyncEvent         `json:"sync_events,omitempty"`
	Steps        int64               `json:"steps"`
	Snapshots    []SerialSnapshot    `json:"snapshots,omitempty"`
	SchedDist    int64               `json:"sched_dist"`
	SyncApproved *SerialApproval     `json:"sync_approved,omitempty"`
	Preemptions  int                 `json:"preemptions,omitempty"`
	EagerForks   int                 `json:"eager_forks,omitempty"`
	GlobalIDs    []SerialNamedID     `json:"global_ids,omitempty"`
	EnvBufs      []SerialNamedID     `json:"env_bufs,omitempty"`
}

// SerialPool is the reference codec's tree of one pool, which
// encoding/json marshals to the esd.checkpoint/v1 pool bytes.
type SerialPool struct {
	Exprs  []SerialExpr   `json:"exprs,omitempty"`
	Objs   []SerialObject `json:"objs,omitempty"`
	States []SerialState  `json:"states,omitempty"`
	// Roots are 1-based state indices of the frontier states, in the
	// caller's order.
	Roots []int `json:"roots,omitempty"`
}

// poolEncoder carries the dedup tables of one encoding pass.
type poolEncoder struct {
	p      *SerialPool
	exprs  map[*expr.Expr]int
	objs   map[*Object]int
	freed  map[int]int // freed object ID -> table index
	states map[*State]int
}

// referenceEncode builds the reference tree of roots (frontier states, in
// order) and everything they reach.
func referenceEncode(roots []*State) *SerialPool {
	enc := &poolEncoder{
		p:      &SerialPool{},
		exprs:  map[*expr.Expr]int{},
		objs:   map[*Object]int{},
		freed:  map[int]int{},
		states: map[*State]int{},
	}
	for _, st := range roots {
		enc.p.Roots = append(enc.p.Roots, enc.state(st))
	}
	return enc.p
}

func (enc *poolEncoder) expr(e *expr.Expr) int {
	if e == nil {
		return 0
	}
	if idx, ok := enc.exprs[e]; ok {
		return idx
	}
	se := SerialExpr{
		Op: int(e.Op), C: e.C, N: e.Name,
		A: enc.expr(e.A), B: enc.expr(e.B), T: enc.expr(e.T), F: enc.expr(e.F),
	}
	enc.p.Exprs = append(enc.p.Exprs, se)
	idx := len(enc.p.Exprs)
	enc.exprs[e] = idx
	return idx
}

func (enc *poolEncoder) value(v Value) SerialValue {
	switch {
	case v.isPtr():
		return SerialValue{P: true, Obj: v.ref, Off: enc.expr(v.E)}
	case v.isFn():
		return SerialValue{Fn: v.E.Name}
	default:
		return SerialValue{E: enc.expr(v.E)}
	}
}

func (enc *poolEncoder) object(o *Object) int {
	if idx, ok := enc.objs[o]; ok {
		return idx
	}
	so := SerialObject{
		ID: o.ID, Kind: int(o.Kind), Size: o.Size, Name: o.Name,
		Cells: make([]SerialValue, len(o.Cells)),
	}
	for i, c := range o.Cells {
		so.Cells[i] = enc.value(c)
	}
	enc.p.Objs = append(enc.p.Objs, so)
	idx := len(enc.p.Objs)
	enc.objs[o] = idx
	return idx
}

// freedObject returns the table index of the entry for the freed object
// id: its ID and kind, marked freed, with no cells.
func (enc *poolEncoder) freedObject(id int, kind ObjKind) int {
	if idx, ok := enc.freed[id]; ok {
		return idx
	}
	enc.p.Objs = append(enc.p.Objs, SerialObject{ID: id, Kind: int(kind), Freed: true, Cells: []SerialValue{}})
	idx := len(enc.p.Objs)
	enc.freed[id] = idx
	return idx
}

func sortedNamedIDs(m map[string]int) []SerialNamedID {
	if len(m) == 0 {
		return nil
	}
	out := make([]SerialNamedID, 0, len(m))
	for name, id := range m {
		out = append(out, SerialNamedID{Name: name, ID: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (enc *poolEncoder) state(st *State) int {
	if idx, ok := enc.states[st]; ok {
		return idx
	}
	// Reserve the slot before descending: Snapshots form a DAG (snapshots
	// are strictly older than their holders), and pre-registration keeps
	// the encoder linear in the number of distinct states.
	enc.p.States = append(enc.p.States, SerialState{})
	idx := len(enc.p.States)
	enc.states[st] = idx

	ss := SerialState{
		ID: st.ID, Cur: st.Cur, Status: int(st.Status),
		Crash: st.Crash, Deadlock: st.Deadlock,
		ExitCode: enc.value(st.ExitCode),
		Schedule: st.Schedule, SyncEvents: st.SyncEvents,
		Steps: st.Steps, SchedDist: st.SchedDist,
		Preemptions: st.Preemptions, EagerForks: st.EagerForks,
		Inputs:    st.Inputs,
		GlobalIDs: sortedNamedIDs(st.globalIDs),
		EnvBufs:   sortedNamedIDs(st.envBufs),
	}
	if st.syncApproved != nil {
		ss.SyncApproved = &SerialApproval{Tid: st.syncApproved.Tid, Loc: st.syncApproved.Loc}
	}
	mem := make([]memEntry, 0, len(st.Mem.objects))
	for id, o := range st.Mem.objects {
		mem = append(mem, memEntry{id: id, o: o})
	}
	for f := st.Mem.freed; f != nil; f = f.next {
		mem = append(mem, memEntry{id: f.id(), kind: f.kind()})
	}
	sort.Slice(mem, func(i, j int) bool { return mem[i].id < mem[j].id })
	for _, m := range mem {
		if m.o != nil {
			ss.Mem = append(ss.Mem, enc.object(m.o))
		} else {
			ss.Mem = append(ss.Mem, enc.freedObject(m.id, m.kind))
		}
	}
	for _, t := range st.Threads {
		sth := SerialThread{
			ID: t.ID, Status: int(t.Status),
			WaitMutex: t.WaitMutex, WaitCond: t.WaitCond, WaitTid: t.WaitTid,
			Result: enc.value(t.Result), CondPhase: t.CondPhase,
		}
		for fi := range t.Frames {
			f := &t.Frames[fi]
			sf := SerialFrame{
				Fn: f.Fn.Name, Block: f.Block, Idx: f.Idx, RetDst: f.RetDst,
				Allocas: t.frameAllocas(fi), Regs: make([]SerialValue, len(f.Regs)),
			}
			for i, r := range f.Regs {
				sf.Regs[i] = enc.value(r)
			}
			sth.Frames = append(sth.Frames, sf)
		}
		ss.Threads = append(ss.Threads, sth)
	}
	for _, c := range st.Constraints {
		ss.Constraints = append(ss.Constraints, enc.expr(c))
	}
	for _, k := range sortedMutexKeys(st.Mutexes) {
		m := st.Mutexes[k]
		ss.Mutexes = append(ss.Mutexes, SerialMutex{Key: k, Holder: m.Holder, AcqLoc: m.AcqLoc})
	}
	for _, k := range sortedMutexKeys(st.CondWaiters) {
		ss.CondWaiters = append(ss.CondWaiters, SerialCondWaiters{
			Key: k, Tids: st.CondWaiters[k],
		})
	}
	for _, k := range sortedMutexKeys(st.Snapshots) {
		ss.Snapshots = append(ss.Snapshots, SerialSnapshot{Key: k, State: enc.state(st.Snapshots[k])})
	}
	enc.p.States[idx-1] = ss
	return idx
}

// poolDecoder carries one decoding pass's resolved tables.
type poolDecoder struct {
	p     *SerialPool
	prog  *mir.Program
	exprs []*expr.Expr
	// objs holds the decoded objects by table index, nil for an entry
	// marked freed (it goes into the freed log of each space listing it).
	objs   []*Object
	states []*State
}

// decode rebuilds the pool's root states against prog, re-interning every
// term under the current interner. The returned states are in Roots order.
func (p *SerialPool) decode(prog *mir.Program) ([]*State, error) {
	dec := &poolDecoder{p: p, prog: prog}
	if err := dec.decodeExprs(); err != nil {
		return nil, err
	}
	if err := dec.decodeObjs(); err != nil {
		return nil, err
	}
	if err := dec.decodeStates(); err != nil {
		return nil, err
	}
	roots := make([]*State, 0, len(p.Roots))
	for _, idx := range p.Roots {
		st, err := dec.state(idx)
		if err != nil {
			return nil, err
		}
		roots = append(roots, st)
	}
	settleDecoded(roots)
	return roots, nil
}

func (dec *poolDecoder) decodeExprs() error {
	dec.exprs = make([]*expr.Expr, len(dec.p.Exprs))
	nodes := make([]int, len(dec.p.Exprs)) // tree sizes
	for i, se := range dec.p.Exprs {
		nodes[i] = 1
		for _, c := range [...]int{se.A, se.B, se.T, se.F} {
			if c >= 1 && c <= i {
				nodes[i] += nodes[c-1]
			}
		}
		if nodes[i] > maxTermNodes {
			return fmt.Errorf("symex: expr %d has more than %d nodes as a tree", i+1, maxTermNodes)
		}
		child := func(idx int) (*expr.Expr, error) {
			if idx == 0 {
				return nil, nil
			}
			if idx < 1 || idx > i {
				return nil, fmt.Errorf("symex: expr %d references forward/invalid child %d", i+1, idx)
			}
			return dec.exprs[idx-1], nil
		}
		a, err := child(se.A)
		if err != nil {
			return err
		}
		b, err := child(se.B)
		if err != nil {
			return err
		}
		t, err := child(se.T)
		if err != nil {
			return err
		}
		f, err := child(se.F)
		if err != nil {
			return err
		}
		e, err := expr.Reintern(expr.Op(se.Op), se.C, se.N, a, b, t, f)
		if err != nil {
			return err
		}
		dec.exprs[i] = e
	}
	return nil
}

func (dec *poolDecoder) expr(idx int) (*expr.Expr, error) {
	if idx == 0 {
		return nil, nil
	}
	if idx < 1 || idx > len(dec.exprs) {
		return nil, fmt.Errorf("symex: invalid expr index %d", idx)
	}
	return dec.exprs[idx-1], nil
}

func (dec *poolDecoder) value(sv SerialValue) (Value, error) {
	switch {
	case sv.P:
		if sv.Obj < 1 {
			return Value{}, fmt.Errorf("symex: pointer to invalid object ID %d", sv.Obj)
		}
		off, err := dec.expr(sv.Off)
		if err != nil {
			return Value{}, err
		}
		if off == nil {
			return Value{}, fmt.Errorf("symex: pointer to object %d has no offset", sv.Obj)
		}
		return Value{E: off, ref: sv.Obj}, nil
	case sv.Fn != "":
		if dec.prog.Funcs[sv.Fn] == nil {
			return Value{}, fmt.Errorf("symex: function value names unknown function %q", sv.Fn)
		}
		return FnVal(sv.Fn), nil
	default:
		e, err := dec.expr(sv.E)
		if err != nil {
			return Value{}, err
		}
		return Value{E: e}, nil
	}
}

func (dec *poolDecoder) decodeObjs() error {
	dec.objs = make([]*Object, len(dec.p.Objs))
	for i, so := range dec.p.Objs {
		if so.Size != len(so.Cells) {
			return fmt.Errorf("symex: object %d has size %d but %d cells", so.ID, so.Size, len(so.Cells))
		}
		var o *Object
		if !so.Freed {
			o = newObject(so.ID, ObjKind(so.Kind), so.Size, so.Name)
		}
		for ci, sc := range so.Cells {
			v, err := dec.value(sc)
			if err != nil {
				return err
			}
			if o != nil {
				o.Cells[ci] = v
			}
		}
		dec.objs[i] = o
	}
	return nil
}

func (dec *poolDecoder) state(idx int) (*State, error) {
	if idx < 1 || idx > len(dec.states) {
		return nil, fmt.Errorf("symex: invalid state index %d", idx)
	}
	return dec.states[idx-1], nil
}

func (dec *poolDecoder) decodeStates() error {
	// Pass 1: allocate shells so snapshot references can resolve.
	dec.states = make([]*State, len(dec.p.States))
	for i := range dec.p.States {
		dec.states[i] = &State{}
	}
	for i, ss := range dec.p.States {
		st := dec.states[i]
		st.ID = ss.ID
		st.Prog = dec.prog
		st.Cur = ss.Cur
		st.Status = StateStatus(ss.Status)
		st.Crash = ss.Crash
		st.Deadlock = ss.Deadlock
		st.Schedule = ss.Schedule
		st.SyncEvents = ss.SyncEvents
		st.Steps = ss.Steps
		st.SchedDist = ss.SchedDist
		st.Preemptions = ss.Preemptions
		st.EagerForks = ss.EagerForks
		st.Inputs = ss.Inputs
		if ss.SyncApproved != nil {
			st.syncApproved = &syncApproval{Tid: ss.SyncApproved.Tid, Loc: ss.SyncApproved.Loc}
		}
		var err error
		if st.ExitCode, err = dec.value(ss.ExitCode); err != nil {
			return err
		}
		// No decoded state holds an object: every object is "shared" until
		// first written, exactly as after a fork. Decoded states
		// referencing the same object table entry share the pointer, so
		// post-resume COW behaves as pre-checkpoint COW did.
		st.Mem = &AddrSpace{objects: map[int]*Object{}}
		st.syncOwner = new(cowOwner)
		for _, oi := range ss.Mem {
			if oi < 1 || oi > len(dec.objs) {
				return fmt.Errorf("symex: state %d references invalid object %d", ss.ID, oi)
			}
			if o := dec.objs[oi-1]; o != nil {
				st.Mem.objects[o.ID] = o
			} else {
				so := &dec.p.Objs[oi-1]
				st.Mem.freed = newFreed(so.ID, ObjKind(so.Kind), st.Mem.freed)
			}
		}
		if ss.Cur < 0 || ss.Cur >= len(ss.Threads) {
			return fmt.Errorf("symex: state %d schedules thread index %d of %d", ss.ID, ss.Cur, len(ss.Threads))
		}
		for _, sth := range ss.Threads {
			t := &Thread{
				ID: sth.ID, Status: ThreadStatus(sth.Status),
				WaitMutex: sth.WaitMutex, WaitCond: sth.WaitCond,
				WaitTid: sth.WaitTid, CondPhase: sth.CondPhase,
				owner: st.syncOwner,
			}
			if t.Result, err = dec.value(sth.Result); err != nil {
				return err
			}
			for _, sf := range sth.Frames {
				fn, ok := dec.prog.Funcs[sf.Fn]
				if !ok {
					return fmt.Errorf("symex: checkpoint references unknown function %q (program changed?)", sf.Fn)
				}
				if err := checkFrame(fn, sf.Block, sf.Idx, len(sf.Regs), sf.RetDst, t.Top()); err != nil {
					return fmt.Errorf("symex: state %d: %w", ss.ID, err)
				}
				regs := t.newRegs(len(sf.Regs))
				for ri, sr := range sf.Regs {
					if regs[ri], err = dec.value(sr); err != nil {
						return err
					}
				}
				t.pushFrame(Frame{Fn: fn, Block: sf.Block, Idx: sf.Idx, RetDst: sf.RetDst, Regs: regs})
				t.allocas = append(t.allocas, sf.Allocas...)
			}
			st.Threads = append(st.Threads, t)
		}
		st.Constraints = make([]*expr.Expr, 0, len(ss.Constraints))
		st.Box = solver.NewBox()
		for _, ci := range ss.Constraints {
			c, err := dec.expr(ci)
			if err != nil {
				return err
			}
			if c == nil {
				return fmt.Errorf("symex: state %d has nil constraint", ss.ID)
			}
			st.Constraints = append(st.Constraints, c)
			st.Box.Assume(c)
		}
		st.Mutexes = make(map[MutexKey]*MutexState, len(ss.Mutexes))
		for _, sm := range ss.Mutexes {
			st.Mutexes[sm.Key] = &MutexState{Holder: sm.Holder, AcqLoc: sm.AcqLoc}
		}
		st.CondWaiters = make(map[MutexKey][]int, len(ss.CondWaiters))
		for _, cw := range ss.CondWaiters {
			st.CondWaiters[cw.Key] = cw.Tids
		}
		st.Snapshots = make(map[MutexKey]*State, len(ss.Snapshots))
		for _, sn := range ss.Snapshots {
			snap, err := dec.state(sn.State)
			if err != nil {
				return err
			}
			st.Snapshots[sn.Key] = snap
		}
		st.globalIDs = make(map[string]int, len(ss.GlobalIDs))
		for _, g := range ss.GlobalIDs {
			st.globalIDs[g.Name] = g.ID
		}
		st.envBufs = make(map[string]int, len(ss.EnvBufs))
		for _, e := range ss.EnvBufs {
			st.envBufs[e.Name] = e.ID
		}
	}
	return nil
}
