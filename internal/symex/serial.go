package symex

import (
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"

	"esd/internal/expr"
	"esd/internal/jsonx"
	"esd/internal/mir"
	"esd/internal/solver"
)

// This file serializes execution-state graphs for search checkpoints, in
// one hand-written pass each way over the esd.checkpoint/v1 pool bytes.
// The three kinds of shared structure are each encoded once and
// referenced by 1-based table index (0 = none), so the encoded form
// preserves exactly the sharing the in-memory form has:
//
//   - interned terms ("exprs"): {"op","c","n","a","b","t","f"}, children
//     before parents, rebuilt through expr.Reintern so the decoded nodes
//     are canonical under the current interner (checkpoints outlive the
//     original terms and the process);
//   - COW objects ("objs"): {"id","kind","size","name","freed","cells"}.
//     Forked states share Object pointers until first write, and the
//     table dedups by pointer; no decoded state holds an object's token,
//     so the first write after resume clones exactly as it would have in
//     the original process. A freed object is an entry of
//     its space's freed log, encoded once per ID as an object marked
//     freed with no cells (older encoders kept its size and cells; the
//     decoder logs it either way);
//   - states ("states"): K_S snapshot states are shared across forked
//     siblings, and the state table dedups them too. "roots" lists the
//     frontier states' indices in the caller's order.
//
// A value is {"e":term} for a scalar, {"p":true,"o":objectID,"f":term}
// for a pointer (the object is named by ID, which the decoded address
// space resolves, not by table index) and {"fn":name} for a function.
//
// Index assignment is part of the format, because the bytes are: states
// are numbered roots first, in order, each followed depth-first by its
// snapshots in sorted-key order; a term or object takes the next index of
// its table the first time a state, in index order, reaches it, in the
// order exit code, memory by object ID, each thread's result and then its
// frames' registers, then constraints. Fields appear in a fixed order, and
// a field that encoding/json's omitempty would drop is left out. The
// bytes are pinned to the ones encoding/json wrote from the reflection
// codec this one replaced (reference_test.go keeps it as the test
// oracle): stored checkpoints and fresh ones must resume alike across
// builds, and byte equality is what makes that checkable.
//
// solver.Box is not serialized: it is a pure fold of the constraint
// sequence (exec.addConstraint appends and Assumes each constraint exactly
// once), so decode rebuilds it by replaying Constraints, each distinct
// prefix once, which reproduces the original intervals bit-for-bit.

// Pool is an encoded state pool: the frontier roots plus every K_S
// snapshot state reachable from them, as the JSON object described above.
type Pool []byte

// MarshalJSON writes the pool as it is (null when there is none).
func (p Pool) MarshalJSON() ([]byte, error) {
	if p == nil {
		return []byte("null"), nil
	}
	return p, nil
}

// UnmarshalJSON keeps a copy of the pool's bytes; null leaves it unset.
func (p *Pool) UnmarshalJSON(data []byte) error {
	if string(data) != "null" {
		*p = append(Pool(nil), data...)
	}
	return nil
}

// poolWriter carries one encoding pass: the dedup tables, and the body of
// each table, an entry appended the first time a state reaches it.
type poolWriter struct {
	exprs, objs, states body
	nExprs, nObjs       int
	exprIdx             map[*expr.Expr]int
	objIdx              map[*Object]int
	freedIdx            map[int]int // freed object ID -> table index
	stateIdx            map[*State]int
	order               []*State // states in table order
	// globals holds the encoded global_ids of each distinct map: every
	// state of a lineage shares one.
	globals map[uintptr][]byte
	mem     []memEntry
	names   []string
}

// body is a table body being written, in chunks: growing it copies
// nothing, and each chunk wastes at most the room one entry reserves.
type body struct {
	chunks [][]byte
	cur    []byte
	n      int // bytes in chunks
}

const chunkSize = 1 << 18

// room returns the current chunk with room for n more bytes. The caller
// appends an entry to it (which may outgrow it) and stores it back in
// cur.
func (b *body) room(n int) []byte {
	if cap(b.cur)-len(b.cur) < n {
		if len(b.cur) > 0 {
			b.chunks = append(b.chunks, b.cur)
			b.n += len(b.cur)
		}
		b.cur = make([]byte, 0, max(chunkSize, n))
	}
	return b.cur
}

func (b *body) len() int { return b.n + len(b.cur) }

func (b *body) appendTo(dst []byte) []byte {
	for _, c := range b.chunks {
		dst = append(dst, c...)
	}
	return append(dst, b.cur...)
}

// AppendPool serializes roots (frontier states, in order) and everything
// they reach, appending the pool to dst: it grows dst once, with room for
// spare more bytes after the pool. All states must belong to one engine's
// lineage (object IDs unique within it).
func AppendPool(dst []byte, roots []*State, spare int) []byte {
	w := &poolWriter{
		exprIdx:  map[*expr.Expr]int{},
		objIdx:   map[*Object]int{},
		freedIdx: map[int]int{},
		stateIdx: map[*State]int{},
		globals:  map[uintptr][]byte{},
	}
	var rootList []byte
	for i, st := range roots {
		if i > 0 {
			rootList = append(rootList, ',')
		}
		rootList = strconv.AppendInt(rootList, int64(w.number(st)), 10)
	}
	for i, st := range w.order {
		w.state(st, i)
	}
	p := slices.Grow(dst, w.exprs.len()+w.objs.len()+w.states.len()+len(rootList)+48+spare)
	start := len(p)
	p = append(p, '{')
	table := func(key string, b *body) {
		if b.len() == 0 {
			return
		}
		if len(p) > start+1 {
			p = append(p, ',')
		}
		p = append(p, '"')
		p = append(p, key...)
		p = append(p, `":[`...)
		p = b.appendTo(p)
		p = append(p, ']')
	}
	table("exprs", &w.exprs)
	table("objs", &w.objs)
	table("states", &w.states)
	table("roots", &body{cur: rootList})
	return append(p, '}')
}

// number assigns st and the snapshots it reaches their state indices.
func (w *poolWriter) number(st *State) int {
	if idx, ok := w.stateIdx[st]; ok {
		return idx
	}
	w.order = append(w.order, st)
	idx := len(w.order)
	w.stateIdx[st] = idx
	for _, k := range sortedMutexKeys(st.Snapshots) {
		w.number(st.Snapshots[k])
	}
	return idx
}

func (w *poolWriter) expr(e *expr.Expr) int {
	if e == nil {
		return 0
	}
	if idx, ok := w.exprIdx[e]; ok {
		return idx
	}
	a, b, t, f := w.expr(e.A), w.expr(e.B), w.expr(e.T), w.expr(e.F)
	x := w.exprs.room(256)
	if w.nExprs > 0 {
		x = append(x, ',')
	}
	x = appendInt(x, `{"op":`, int64(e.Op))
	if e.C != 0 {
		x = appendInt(x, `,"c":`, e.C)
	}
	if e.Name != "" {
		x = append(x, `,"n":`...)
		x = jsonx.AppendString(x, e.Name)
	}
	for i, c := range [...]int{a, b, t, f} {
		if c != 0 {
			x = append(x, ',', '"', "abtf"[i], '"', ':')
			x = strconv.AppendInt(x, int64(c), 10)
		}
	}
	w.exprs.cur = append(x, '}')
	w.nExprs++
	w.exprIdx[e] = w.nExprs
	return w.nExprs
}

// valueFields is one value's encoded fields: a scalar's term, a
// pointer's object ID and offset term, or a function's name (terms by
// table index).
type valueFields struct {
	e, obj, off int
	p           bool
	fn          string
}

func (w *poolWriter) value(v Value) valueFields {
	switch {
	case v.isPtr():
		return valueFields{p: true, obj: v.ref, off: w.expr(v.E)}
	case v.isFn():
		return valueFields{fn: v.E.Name}
	}
	return valueFields{e: w.expr(v.E)}
}

// appendValue writes a value the encoder made: a pointer's object ID is
// never 0.
func appendValue(b []byte, v valueFields) []byte {
	switch {
	case v.p:
		b = appendInt(b, `{"p":true,"o":`, int64(v.obj))
		if v.off != 0 {
			b = appendInt(b, `,"f":`, int64(v.off))
		}
	case v.fn != "":
		b = append(b, `{"fn":`...)
		b = jsonx.AppendString(b, v.fn)
	case v.e != 0:
		b = appendInt(b, `{"e":`, int64(v.e))
	default:
		b = append(b, '{')
	}
	return append(b, '}')
}

func (w *poolWriter) object(o *Object) int {
	if idx, ok := w.objIdx[o]; ok {
		return idx
	}
	b := w.objs.room(1 << 12)
	if w.nObjs > 0 {
		b = append(b, ',')
	}
	b = appendInt(b, `{"id":`, int64(o.ID))
	b = appendInt(b, `,"kind":`, int64(o.Kind))
	b = appendInt(b, `,"size":`, int64(o.Size))
	if o.Name != "" {
		b = append(b, `,"name":`...)
		b = jsonx.AppendString(b, o.Name)
	}
	b = append(b, `,"cells":[`...)
	for i, c := range o.Cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendValue(b, w.value(c))
	}
	w.objs.cur = append(b, "]}"...)
	w.nObjs++
	w.objIdx[o] = w.nObjs
	return w.nObjs
}

// freedObject returns the table index of the entry for the freed object
// id: its ID and kind, marked freed, with no cells.
func (w *poolWriter) freedObject(id int, kind ObjKind) int {
	if idx, ok := w.freedIdx[id]; ok {
		return idx
	}
	b := w.objs.room(64)
	if w.nObjs > 0 {
		b = append(b, ',')
	}
	b = appendInt(b, `{"id":`, int64(id))
	b = appendInt(b, `,"kind":`, int64(kind))
	w.objs.cur = append(b, `,"size":0,"freed":true,"cells":[]}`...)
	w.nObjs++
	w.freedIdx[id] = w.nObjs
	return w.nObjs
}

// memEntry is one object of an address space being encoded: mapped (o)
// or freed (kind).
type memEntry struct {
	id   int
	o    *Object
	kind ObjKind
}

func sortedMutexKeys[V any](m map[MutexKey]V) []MutexKey {
	if len(m) == 0 {
		return nil
	}
	keys := make([]MutexKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b MutexKey) int {
		return cmp.Or(cmp.Compare(a.Obj, b.Obj), cmp.Compare(a.Off, b.Off))
	})
	return keys
}

// state appends st's table entry, the i-th.
func (w *poolWriter) state(st *State, i int) {
	exit := w.value(st.ExitCode)
	b := w.states.room(1 << 14)
	if i > 0 {
		b = append(b, ',')
	}
	b = appendInt(b, `{"id":`, int64(st.ID))
	b = append(b, `,"mem":`...)
	b = w.appendMem(b, st.Mem)
	b = append(b, `,"threads":`...)
	if len(st.Threads) == 0 {
		b = append(b, "null"...)
	} else {
		for i, t := range st.Threads {
			b = jsonx.AppendSep(b, i)
			b = w.appendThread(b, t)
		}
		b = append(b, ']')
	}
	b = appendInt(b, `,"cur":`, int64(st.Cur))
	if len(st.Constraints) > 0 {
		b = append(b, `,"constraints":`...)
		for i, c := range st.Constraints {
			b = jsonx.AppendSep(b, i)
			b = strconv.AppendInt(b, int64(w.expr(c)), 10)
		}
		b = append(b, ']')
	}
	if len(st.Inputs) > 0 {
		b = append(b, `,"inputs":`...)
		for i, in := range st.Inputs {
			b = jsonx.AppendSep(b, i)
			b = append(b, `{"Var":`...)
			b = jsonx.AppendString(b, in.Var)
			b = appendInt(b, `,"Kind":`, int64(in.Kind))
			b = append(b, `,"Name":`...)
			b = jsonx.AppendString(b, in.Name)
			b = appendInt(b, `,"Seq":`, int64(in.Seq))
			b = append(b, `,"Concrete":`...)
			b = strconv.AppendBool(b, in.Concrete)
			b = appendInt(b, `,"Val":`, in.Val)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if keys := sortedMutexKeys(st.Mutexes); len(keys) > 0 {
		b = append(b, `,"mutexes":`...)
		for i, k := range keys {
			m := st.Mutexes[k]
			b = jsonx.AppendSep(b, i)
			b = append(b, `{"key":`...)
			b = appendMutexKey(b, k)
			b = appendInt(b, `,"holder":`, int64(m.Holder))
			b = append(b, `,"acq_loc":`...)
			b = appendLoc(b, m.AcqLoc)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if keys := sortedMutexKeys(st.CondWaiters); len(keys) > 0 {
		b = append(b, `,"cond_waiters":`...)
		for i, k := range keys {
			b = jsonx.AppendSep(b, i)
			b = append(b, `{"key":`...)
			b = appendMutexKey(b, k)
			b = append(b, `,"tids":`...)
			if tids := st.CondWaiters[k]; tids == nil {
				b = append(b, "null"...)
			} else {
				b = appendInts(b, tids)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if st.Status != 0 {
		b = appendInt(b, `,"status":`, int64(st.Status))
	}
	if st.Crash != nil {
		b = appendJSON(append(b, `,"crash":`...), st.Crash)
	}
	if st.Deadlock != nil {
		b = appendJSON(append(b, `,"deadlock":`...), st.Deadlock)
	}
	b = append(b, `,"exit_code":`...)
	b = appendValue(b, exit)
	if len(st.Schedule) > 0 {
		b = append(b, `,"schedule":`...)
		for i, s := range st.Schedule {
			b = jsonx.AppendSep(b, i)
			b = appendInt(b, `{"Tid":`, int64(s.Tid))
			b = appendInt(b, `,"Steps":`, s.Steps)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(st.SyncEvents) > 0 {
		b = append(b, `,"sync_events":`...)
		for i, ev := range st.SyncEvents {
			b = jsonx.AppendSep(b, i)
			b = appendInt(b, `{"Tid":`, int64(ev.Tid))
			b = appendInt(b, `,"Op":`, int64(ev.Op))
			b = append(b, `,"Key":`...)
			b = appendMutexKey(b, ev.Key)
			b = append(b, `,"Loc":`...)
			b = appendLoc(b, ev.Loc)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendInt(b, `,"steps":`, st.Steps)
	if keys := sortedMutexKeys(st.Snapshots); len(keys) > 0 {
		b = append(b, `,"snapshots":`...)
		for i, k := range keys {
			b = jsonx.AppendSep(b, i)
			b = append(b, `{"key":`...)
			b = appendMutexKey(b, k)
			b = appendInt(b, `,"state":`, int64(w.stateIdx[st.Snapshots[k]]))
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendInt(b, `,"sched_dist":`, st.SchedDist)
	if a := st.syncApproved; a != nil {
		b = appendInt(b, `,"sync_approved":{"tid":`, int64(a.Tid))
		b = append(b, `,"loc":`...)
		b = appendLoc(b, a.Loc)
		b = append(b, '}')
	}
	if st.Preemptions != 0 {
		b = appendInt(b, `,"preemptions":`, int64(st.Preemptions))
	}
	if st.EagerForks != 0 {
		b = appendInt(b, `,"eager_forks":`, int64(st.EagerForks))
	}
	if len(st.globalIDs) > 0 {
		id := reflect.ValueOf(st.globalIDs).Pointer()
		enc, ok := w.globals[id]
		if !ok {
			enc = w.appendNamedIDs(nil, st.globalIDs)
			w.globals[id] = enc
		}
		b = append(append(b, `,"global_ids":`...), enc...)
	}
	if len(st.envBufs) > 0 {
		b = w.appendNamedIDs(append(b, `,"env_bufs":`...), st.envBufs)
	}
	w.states.cur = append(b, '}')
}

// appendMem appends the table indices of an address space's objects,
// mapped and freed, by object ID.
func (w *poolWriter) appendMem(b []byte, as *AddrSpace) []byte {
	mem := w.mem[:0]
	for id, o := range as.objects {
		mem = append(mem, memEntry{id: id, o: o})
	}
	for f := as.freed; f != nil; f = f.next {
		mem = append(mem, memEntry{id: f.id(), kind: f.kind()})
	}
	w.mem = mem
	if len(mem) == 0 {
		return append(b, "null"...)
	}
	slices.SortFunc(mem, func(a, b memEntry) int { return cmp.Compare(a.id, b.id) })
	for i, m := range mem {
		idx := 0
		if m.o != nil {
			idx = w.object(m.o)
		} else {
			idx = w.freedObject(m.id, m.kind)
		}
		b = jsonx.AppendSep(b, i)
		b = strconv.AppendInt(b, int64(idx), 10)
	}
	return append(b, ']')
}

func (w *poolWriter) appendThread(b []byte, t *Thread) []byte {
	result := w.value(t.Result)
	b = appendInt(b, `{"id":`, int64(t.ID))
	b = append(b, `,"frames":`...)
	if len(t.Frames) == 0 {
		b = append(b, "null"...)
	} else {
		for fi := range t.Frames {
			f := &t.Frames[fi]
			b = jsonx.AppendSep(b, fi)
			b = append(b, `{"fn":`...)
			b = jsonx.AppendString(b, f.Fn.Name)
			b = appendInt(b, `,"block":`, int64(f.Block))
			b = appendInt(b, `,"idx":`, int64(f.Idx))
			b = append(b, `,"regs":[`...)
			for i, r := range f.Regs {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendValue(b, w.value(r))
			}
			b = appendInt(b, `],"ret_dst":`, int64(f.RetDst))
			if allocas := t.frameAllocas(fi); len(allocas) > 0 {
				b = appendInts(append(b, `,"allocas":`...), allocas)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendInt(b, `,"status":`, int64(t.Status))
	b = append(b, `,"wait_mutex":`...)
	b = appendMutexKey(b, t.WaitMutex)
	b = append(b, `,"wait_cond":`...)
	b = appendMutexKey(b, t.WaitCond)
	b = appendInt(b, `,"wait_tid":`, int64(t.WaitTid))
	b = append(b, `,"result":`...)
	b = appendValue(b, result)
	if t.CondPhase != 0 {
		b = appendInt(b, `,"cond_phase":`, int64(t.CondPhase))
	}
	return append(b, '}')
}

// appendNamedIDs appends a name -> object ID map as a name-sorted list.
func (w *poolWriter) appendNamedIDs(b []byte, m map[string]int) []byte {
	names := w.names[:0]
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	w.names = names
	for i, name := range names {
		b = jsonx.AppendSep(b, i)
		b = append(b, `{"name":`...)
		b = jsonx.AppendString(b, name)
		b = appendInt(b, `,"id":`, int64(m[name]))
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendInt appends key (which carries its separators) and v.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendInts(b []byte, s []int) []byte {
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

func appendMutexKey(b []byte, k MutexKey) []byte {
	b = appendInt(b, `{"Obj":`, int64(k.Obj))
	b = appendInt(b, `,"Off":`, k.Off)
	return append(b, '}')
}

func appendLoc(b []byte, l mir.Loc) []byte {
	b = append(b, `{"Fn":`...)
	b = jsonx.AppendString(b, l.Fn)
	b = appendInt(b, `,"Block":`, int64(l.Block))
	b = appendInt(b, `,"Index":`, int64(l.Index))
	return append(b, '}')
}

// appendJSON appends a small bounded value (a terminal state's crash or
// deadlock report) as encoding/json writes it.
func appendJSON(b []byte, v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("symex: encoding %T: %v", v, err)) // plain structs of ints, strings and maps
	}
	return append(b, enc...)
}

// maxTermNodes bounds a decoded term's size counted as a tree, a shared
// subterm once per use. Decoding replays each state's constraints through
// a Box, which walks them as trees, so a few crafted self-sharing nodes
// could otherwise make decoding exponential. Terms the VM builds are
// orders of magnitude smaller.
const maxTermNodes = 1 << 16

// poolReader carries one decoding pass: the tables resolved so far, memos
// that let decoded states share what live states share, and scratch
// buffers reused from one entry to the next.
type poolReader struct {
	r     *jsonx.Reader
	prog  *mir.Program
	exprs []*expr.Expr
	nodes []int // each term's size as a tree
	objs  []objEntry
	// states holds the states by table index, decoded (the first
	// nStates) or only referenced so far by an earlier snapshot.
	states  []*State
	nStates int
	names   map[string]string
	// globals maps the bytes of a global_ids value to its one decoded
	// map: every state of a lineage shares one, as live states do.
	globals   map[string]map[string]int
	noGlobals map[string]int
	// freed holds the freed-log nodes built so far, for states to share.
	freed map[freedKey]*freedObj

	vals   []valueFields
	ints   []int
	cons   []*expr.Expr
	inputs []InputRecord
	sched  []SchedSegment
	events []SyncEvent
}

// freedKey names a freed-log node by the log after it and the object
// table entry it logs.
type freedKey struct {
	next  *freedObj
	entry int
}

// objEntry is one decoded object-table entry: the object, or nil and the
// ID and kind of a freed one.
type objEntry struct {
	o    *Object
	id   int
	kind ObjKind
}

var (
	poolKeys     = []string{"exprs", "objs", "states", "roots"}
	exprKeys     = []string{"op", "c", "n", "a", "b", "t", "f"}
	objKeys      = []string{"id", "kind", "size", "name", "freed", "cells"}
	valueKeys    = []string{"e", "p", "o", "f", "fn"}
	threadKeys   = []string{"id", "frames", "status", "wait_mutex", "wait_cond", "wait_tid", "result", "cond_phase"}
	frameKeys    = []string{"fn", "block", "idx", "regs", "ret_dst", "allocas"}
	mutexKeyKeys = []string{"Obj", "Off"}
	locKeys      = []string{"Fn", "Block", "Index"}
	inputKeys    = []string{"Var", "Kind", "Name", "Seq", "Concrete", "Val"}
	segmentKeys  = []string{"Tid", "Steps"}
	eventKeys    = []string{"Tid", "Op", "Key", "Loc"}
	mutexKeys    = []string{"key", "holder", "acq_loc"}
	waitersKeys  = []string{"key", "tids"}
	snapshotKeys = []string{"key", "state"}
	approvalKeys = []string{"tid", "loc"}
	namedIDKeys  = []string{"name", "id"}
	stateKeys    = []string{"id", "mem", "threads", "cur", "constraints", "inputs", "mutexes",
		"cond_waiters", "status", "crash", "deadlock", "exit_code", "schedule", "sync_events",
		"steps", "snapshots", "sched_dist", "sync_approved", "preemptions", "eager_forks",
		"global_ids", "env_bufs"}
)

// Decode rebuilds the pool's root states against prog, re-interning every
// term under the current interner. The returned states are in roots
// order. The tables must come in the order the encoder writes them:
// exprs, objs, states.
func (p Pool) Decode(prog *mir.Program) ([]*State, error) {
	d := &poolReader{
		r:         jsonx.NewReader(p),
		prog:      prog,
		names:     map[string]string{},
		globals:   map[string]map[string]int{},
		noGlobals: map[string]int{},
		freed:     map[freedKey]*freedObj{},
	}
	roots := d.pool()
	if err := d.r.Err(); err != nil {
		return nil, err
	}
	return roots, nil
}

func (d *poolReader) fail(format string, args ...any) {
	d.r.Fail(fmt.Errorf(format, args...))
}

func (d *poolReader) pool() []*State {
	r := d.r
	var rootIdx []int
	last := 0
	for o := r.Object(poolKeys); o.Next(); {
		if o.Key == "roots" {
			for a := r.Array(); a.Next(); {
				rootIdx = append(rootIdx, int(r.Int()))
			}
			continue
		}
		table := slices.Index(poolKeys, o.Key) + 1
		if table < last {
			d.fail("symex: pool table %q out of order", o.Key)
			return nil
		}
		last = table
		switch o.Key {
		case "exprs":
			d.readExprs()
		case "objs":
			d.readObjs()
		case "states":
			for a := r.Array(); a.Next(); {
				d.nStates++
				d.readState(d.shell(d.nStates))
			}
		}
	}
	r.End()
	if r.Err() != nil {
		return nil
	}
	if len(d.states) > d.nStates {
		d.fail("symex: invalid state index %d", len(d.states))
		return nil
	}
	setBoxes(d.states)
	roots := make([]*State, 0, len(rootIdx))
	for _, idx := range rootIdx {
		if idx < 1 || idx > d.nStates {
			d.fail("symex: invalid state index %d", idx)
			return nil
		}
		roots = append(roots, d.states[idx-1])
	}
	settleDecoded(roots)
	return roots
}

// settleDecoded gives each root, which the search steps next, the token
// its threads and sync maps carry (readState); every other decoded state
// is a K_S snapshot and stays frozen.
func settleDecoded(roots []*State) {
	for _, st := range roots {
		st.Mem.self = st.syncOwner
	}
}

// name returns b as a string, one string per distinct name.
func (d *poolReader) name(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

func (d *poolReader) readExprs() {
	r := d.r
	for a := r.Array(); a.Next(); {
		var op, ca, cb, ct, cf int
		var c int64
		var name string
		for o := r.Object(exprKeys); o.Next(); {
			switch o.Key {
			case "op":
				op = int(r.Int())
			case "c":
				c = r.Int()
			case "n":
				name = d.name(r.Str())
			case "a":
				ca = int(r.Int())
			case "b":
				cb = int(r.Int())
			case "t":
				ct = int(r.Int())
			case "f":
				cf = int(r.Int())
			}
		}
		if r.Err() != nil {
			return
		}
		i := len(d.exprs)
		nodes := 1
		children := [...]int{ca, cb, ct, cf}
		for _, ch := range children {
			if ch >= 1 && ch <= i {
				nodes += d.nodes[ch-1]
			}
		}
		if nodes > maxTermNodes {
			d.fail("symex: expr %d has more than %d nodes as a tree", i+1, maxTermNodes)
			return
		}
		var kids [4]*expr.Expr
		for k, ch := range children {
			if ch < 0 || ch > i {
				d.fail("symex: expr %d references forward/invalid child %d", i+1, ch)
				return
			}
			if ch > 0 {
				kids[k] = d.exprs[ch-1]
			}
		}
		e, err := expr.Reintern(expr.Op(op), c, name, kids[0], kids[1], kids[2], kids[3])
		if err != nil {
			r.Fail(err)
			return
		}
		d.exprs = append(d.exprs, e)
		d.nodes = append(d.nodes, nodes)
	}
}

func (d *poolReader) readObjs() {
	r := d.r
	for a := r.Array(); a.Next(); {
		var id, kind, size int
		var name string
		var freed bool
		cells := d.vals[:0]
		for o := r.Object(objKeys); o.Next(); {
			switch o.Key {
			case "id":
				id = int(r.Int())
			case "kind":
				kind = int(r.Int())
			case "size":
				size = int(r.Int())
			case "name":
				name = d.name(r.Str())
			case "freed":
				freed = r.Bool()
			case "cells":
				for c := r.Array(); c.Next(); {
					cells = append(cells, d.rawValue())
				}
			}
		}
		d.vals = cells
		if r.Err() != nil {
			return
		}
		if size != len(cells) {
			d.fail("symex: object %d has size %d but %d cells", id, size, len(cells))
			return
		}
		if !fitsFreed(id, ObjKind(kind)) {
			d.fail("symex: object %d of kind %d does not fit the freed log", id, kind)
			return
		}
		var ob *Object
		if !freed {
			ob = newObject(id, ObjKind(kind), size, name)
		}
		for i, c := range cells {
			v := d.value(c)
			if ob != nil {
				ob.Cells[i] = v
			}
		}
		d.objs = append(d.objs, objEntry{o: ob, id: id, kind: ObjKind(kind)})
	}
}

// rawValue reads a value's fields, which value resolves once the entry
// holding them has passed the checks that come first.
func (d *poolReader) rawValue() valueFields {
	r := d.r
	var v valueFields
	for o := r.Object(valueKeys); o.Next(); {
		switch o.Key {
		case "e":
			v.e = int(r.Int())
		case "p":
			v.p = r.Bool()
		case "o":
			v.obj = int(r.Int())
		case "f":
			v.off = int(r.Int())
		case "fn":
			v.fn = d.name(r.Str())
		}
	}
	return v
}

func (d *poolReader) expr(idx int) *expr.Expr {
	if idx == 0 {
		return nil
	}
	if idx < 1 || idx > len(d.exprs) {
		d.fail("symex: invalid expr index %d", idx)
		return nil
	}
	return d.exprs[idx-1]
}

func (d *poolReader) value(v valueFields) Value {
	switch {
	case v.p:
		if v.obj < 1 {
			d.fail("symex: pointer to invalid object ID %d", v.obj)
			return Value{}
		}
		off := d.expr(v.off)
		if off == nil {
			d.fail("symex: pointer to object %d has no offset", v.obj)
		}
		return Value{E: off, ref: v.obj}
	case v.fn != "":
		if d.prog.Funcs[v.fn] == nil {
			d.fail("symex: function value names unknown function %q", v.fn)
			return Value{}
		}
		return FnVal(v.fn)
	}
	return Value{E: d.expr(v.e)}
}

// shell returns the state at table index idx, allocating it on first
// reference.
func (d *poolReader) shell(idx int) *State {
	if n := idx - len(d.states); n > 0 {
		d.states = append(d.states, make([]*State, n)...)
	}
	if d.states[idx-1] == nil {
		d.states[idx-1] = &State{}
	}
	return d.states[idx-1]
}

// readState reads one state-table entry into st, which earlier entries'
// snapshots may already point to.
func (d *poolReader) readState(st *State) {
	r := d.r
	st.Prog = d.prog
	// A decoded state comes back frozen: every object is "shared" until
	// first written, exactly as after a fork. Decoded states referencing
	// the same object table entry share the pointer, so post-resume COW
	// behaves as pre-checkpoint COW did. No two decoded states share a
	// thread or a sync map, which carry a token of the state's own.
	st.Mem = &AddrSpace{objects: map[int]*Object{}}
	st.syncOwner = new(cowOwner)
	st.Mutexes = map[MutexKey]*MutexState{}
	st.CondWaiters = map[MutexKey][]int{}
	st.Snapshots = map[MutexKey]*State{}
	st.globalIDs = d.noGlobals
	st.envBufs = map[string]int{}
	cons := d.cons[:0]
	for o := r.Object(stateKeys); o.Next(); {
		switch o.Key {
		case "id":
			st.ID = int(r.Int())
		case "mem":
			d.readMem(st)
		case "threads":
			for a := r.Array(); a.Next(); {
				st.Threads = append(st.Threads, d.thread(st))
			}
		case "cur":
			st.Cur = int(r.Int())
		case "constraints":
			for a := r.Array(); a.Next(); {
				c := d.expr(int(r.Int()))
				if c == nil {
					d.fail("symex: state %d has nil constraint", st.ID)
				}
				cons = append(cons, c)
			}
		case "inputs":
			st.Inputs = jsonx.List(r, &d.inputs, d.input)
		case "mutexes":
			for a := r.Array(); a.Next(); {
				var k MutexKey
				m := &MutexState{}
				for o := r.Object(mutexKeys); o.Next(); {
					switch o.Key {
					case "key":
						k = d.mutexKey()
					case "holder":
						m.Holder = int(r.Int())
					case "acq_loc":
						m.AcqLoc = d.loc()
					}
				}
				st.Mutexes[k] = m
			}
		case "cond_waiters":
			for a := r.Array(); a.Next(); {
				var k MutexKey
				var tids []int
				for o := r.Object(waitersKeys); o.Next(); {
					switch o.Key {
					case "key":
						k = d.mutexKey()
					case "tids":
						tids = jsonx.List(r, &d.ints, func() int { return int(r.Int()) })
					}
				}
				st.CondWaiters[k] = tids
			}
		case "status":
			st.Status = StateStatus(r.Int())
		case "crash":
			r.Unmarshal(&st.Crash)
		case "deadlock":
			r.Unmarshal(&st.Deadlock)
		case "exit_code":
			st.ExitCode = d.value(d.rawValue())
		case "schedule":
			st.Schedule = jsonx.List(r, &d.sched, d.segment)
		case "sync_events":
			st.SyncEvents = jsonx.List(r, &d.events, d.event)
		case "steps":
			st.Steps = r.Int()
		case "snapshots":
			for a := r.Array(); a.Next(); {
				var k MutexKey
				idx := 0
				for o := r.Object(snapshotKeys); o.Next(); {
					switch o.Key {
					case "key":
						k = d.mutexKey()
					case "state":
						idx = int(r.Int())
					}
				}
				st.Snapshots[k] = d.snapshot(idx)
			}
		case "sched_dist":
			st.SchedDist = r.Int()
		case "sync_approved":
			if !r.Null() {
				st.syncApproved = &syncApproval{}
				for o := r.Object(approvalKeys); o.Next(); {
					switch o.Key {
					case "tid":
						st.syncApproved.Tid = int(r.Int())
					case "loc":
						st.syncApproved.Loc = d.loc()
					}
				}
			}
		case "preemptions":
			st.Preemptions = int(r.Int())
		case "eager_forks":
			st.EagerForks = int(r.Int())
		case "global_ids":
			st.globalIDs = d.globalIDs()
		case "env_bufs":
			d.namedIDs(r, st.envBufs)
		}
	}
	d.cons = cons
	if r.Err() != nil {
		return
	}
	if st.Cur < 0 || st.Cur >= len(st.Threads) {
		d.fail("symex: state %d schedules thread index %d of %d", st.ID, st.Cur, len(st.Threads))
		return
	}
	st.Constraints = append(make([]*expr.Expr, 0, len(cons)), cons...)
}

// readMem reads a state's address space: the object-table entries it
// maps, and those it logs as freed. States with the same freed entries
// so far share their log's nodes, as fork siblings do.
func (d *poolReader) readMem(st *State) {
	r := d.r
	idx := d.ints[:0]
	for a := r.Array(); a.Next(); {
		idx = append(idx, int(r.Int()))
	}
	if d.ints = idx; r.Err() != nil {
		return
	}
	mapped := 0
	for _, oi := range idx {
		if oi < 1 || oi > len(d.objs) {
			d.fail("symex: state %d references invalid object %d", st.ID, oi)
			return
		}
		if d.objs[oi-1].o != nil {
			mapped++
		}
	}
	st.Mem.objects = make(map[int]*Object, mapped)
	for _, oi := range idx {
		e := d.objs[oi-1]
		if e.o != nil {
			st.Mem.objects[e.o.ID] = e.o
			continue
		}
		k := freedKey{st.Mem.freed, oi}
		f := d.freed[k]
		if f == nil {
			f = newFreed(e.id, e.kind, st.Mem.freed)
			d.freed[k] = f
		}
		st.Mem.freed = f
	}
}

// snapshot resolves a snapshot's state index. A snapshot is numbered
// after the state that holds it, so its entry usually comes later: its
// shell is filled when the entry is read. The index may run ahead of the
// entries read by no more than the unread bytes could hold, so a crafted
// one cannot allocate more than the input describes.
func (d *poolReader) snapshot(idx int) *State {
	if idx < 1 || idx > d.nStates+d.r.Remaining() {
		d.fail("symex: invalid state index %d", idx)
		return nil
	}
	return d.shell(idx)
}

// thread reads the next thread of st, tagged with st's token. The VM
// indexes Threads by thread ID, so the ID must be the thread's index.
func (d *poolReader) thread(st *State) *Thread {
	r := d.r
	t := &Thread{owner: st.syncOwner}
	for o := r.Object(threadKeys); o.Next(); {
		switch o.Key {
		case "id":
			t.ID = int(r.Int())
		case "frames":
			for a := r.Array(); a.Next(); {
				d.frame(t, st.ID)
			}
		case "status":
			t.Status = ThreadStatus(r.Int())
		case "wait_mutex":
			t.WaitMutex = d.mutexKey()
		case "wait_cond":
			t.WaitCond = d.mutexKey()
		case "wait_tid":
			t.WaitTid = int(r.Int())
		case "result":
			t.Result = d.value(d.rawValue())
		case "cond_phase":
			t.CondPhase = int(r.Int())
		}
	}
	if t.ID != len(st.Threads) {
		d.fail("symex: state %d lists thread ID %d at index %d", st.ID, t.ID, len(st.Threads))
	}
	return t
}

// frame reads one frame and pushes it onto t.
func (d *poolReader) frame(t *Thread, stID int) {
	r := d.r
	var fn *mir.Func
	var fnName string
	var block, idx, retDst int
	regs, allocas := d.vals[:0], d.ints[:0]
	for o := r.Object(frameKeys); o.Next(); {
		switch o.Key {
		case "fn":
			name := r.Str()
			if fn = d.prog.Funcs[string(name)]; fn == nil {
				fnName = string(name)
			}
		case "block":
			block = int(r.Int())
		case "idx":
			idx = int(r.Int())
		case "regs":
			for a := r.Array(); a.Next(); {
				regs = append(regs, d.rawValue())
			}
		case "ret_dst":
			retDst = int(r.Int())
		case "allocas":
			for a := r.Array(); a.Next(); {
				allocas = append(allocas, int(r.Int()))
			}
		}
	}
	d.vals, d.ints = regs, allocas
	if r.Err() != nil {
		return
	}
	if fn == nil {
		d.fail("symex: checkpoint references unknown function %q (program changed?)", fnName)
		return
	}
	if err := checkFrame(fn, block, idx, len(regs), retDst, t.Top()); err != nil {
		d.fail("symex: state %d: %w", stID, err)
		return
	}
	rs := t.newRegs(len(regs))
	for i, v := range regs {
		rs[i] = d.value(v)
	}
	t.pushFrame(Frame{Fn: fn, Block: block, Idx: idx, RetDst: retDst, Regs: rs})
	t.allocas = append(t.allocas, allocas...)
}

func (d *poolReader) mutexKey() MutexKey {
	r := d.r
	var k MutexKey
	for o := r.Object(mutexKeyKeys); o.Next(); {
		switch o.Key {
		case "Obj":
			k.Obj = int(r.Int())
		case "Off":
			k.Off = r.Int()
		}
	}
	return k
}

func (d *poolReader) loc() mir.Loc {
	r := d.r
	var l mir.Loc
	for o := r.Object(locKeys); o.Next(); {
		switch o.Key {
		case "Fn":
			l.Fn = d.name(r.Str())
		case "Block":
			l.Block = int(r.Int())
		case "Index":
			l.Index = int(r.Int())
		}
	}
	return l
}

func (d *poolReader) input() InputRecord {
	r := d.r
	var in InputRecord
	for o := r.Object(inputKeys); o.Next(); {
		switch o.Key {
		case "Var":
			in.Var = d.name(r.Str())
		case "Kind":
			in.Kind = InputKind(r.Int())
		case "Name":
			in.Name = d.name(r.Str())
		case "Seq":
			in.Seq = int(r.Int())
		case "Concrete":
			in.Concrete = r.Bool()
		case "Val":
			in.Val = r.Int()
		}
	}
	return in
}

func (d *poolReader) segment() SchedSegment {
	r := d.r
	var s SchedSegment
	for o := r.Object(segmentKeys); o.Next(); {
		switch o.Key {
		case "Tid":
			s.Tid = int(r.Int())
		case "Steps":
			s.Steps = r.Int()
		}
	}
	return s
}

func (d *poolReader) event() SyncEvent {
	r := d.r
	var ev SyncEvent
	for o := r.Object(eventKeys); o.Next(); {
		switch o.Key {
		case "Tid":
			ev.Tid = int(r.Int())
		case "Op":
			ev.Op = mir.Opcode(r.Int())
		case "Key":
			ev.Key = d.mutexKey()
		case "Loc":
			ev.Loc = d.loc()
		}
	}
	return ev
}

// namedIDs reads a list of (name, object ID) bindings from r into m.
func (d *poolReader) namedIDs(r *jsonx.Reader, m map[string]int) {
	for a := r.Array(); a.Next(); {
		var name string
		id := 0
		for o := r.Object(namedIDKeys); o.Next(); {
			switch o.Key {
			case "name":
				name = d.name(r.Str())
			case "id":
				id = int(r.Int())
			}
		}
		m[name] = id
	}
}

// globalIDs reads a global_ids value, decoding each distinct one once.
func (d *poolReader) globalIDs() map[string]int {
	raw := d.r.Skip()
	if m, ok := d.globals[string(raw)]; ok || d.r.Err() != nil {
		return m
	}
	m := map[string]int{}
	sub := jsonx.NewReader(raw)
	d.namedIDs(sub, m)
	if err := sub.Err(); err != nil {
		d.r.Fail(err)
	}
	d.globals[string(raw)] = m
	return m
}

// setBoxes gives each state the Box of its constraints. The states'
// constraint sequences form a trie, decoded siblings sharing most of
// their path: walking it replays Box.Assume once per distinct prefix, and
// clones a box only where a path branches or a state ends, one clone per
// state but one in all.
func setBoxes(states []*State) {
	type node struct {
		c           *expr.Expr
		child, next int32 // first child and next sibling, -1 for none
		states      []*State
	}
	type edge struct {
		parent int32
		c      *expr.Expr
	}
	nodes := []node{{child: -1, next: -1}}
	index := map[edge]int32{}
	for _, st := range states {
		n := int32(0)
		for _, c := range st.Constraints {
			ch, ok := index[edge{n, c}]
			if !ok {
				ch = int32(len(nodes))
				nodes = append(nodes, node{c: c, child: -1, next: nodes[n].child})
				nodes[n].child = ch
				index[edge{n, c}] = ch
			}
			n = ch
		}
		nodes[n].states = append(nodes[n].states, st)
	}
	// Each node's box is handed on: cloned for every state ending there
	// and every child but the last, which takes it to Assume into.
	type frame struct {
		n   int32
		box *solver.Box
	}
	stack := []frame{{0, solver.NewBox()}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &nodes[f.n]
		for i, st := range nd.states {
			if i == len(nd.states)-1 && nd.child < 0 {
				st.Box = f.box
			} else {
				st.Box = f.box.Clone()
			}
		}
		for ch := nd.child; ch >= 0; ch = nodes[ch].next {
			b := f.box
			if nodes[ch].next >= 0 {
				b = b.Clone()
			}
			b.Assume(nodes[ch].c)
			stack = append(stack, frame{ch, b})
		}
	}
}

// checkFrame rejects a serialized frame the VM could not step or return
// from: a position outside fn, a register file not sized for fn, or a
// return register outside the caller's (nil for a thread's first frame).
func checkFrame(fn *mir.Func, block, idx, nregs, retDst int, caller *Frame) error {
	if block < 0 || block >= len(fn.Blocks) || idx < 0 || idx > len(fn.Blocks[block].Instrs) {
		return fmt.Errorf("frame of %s at b%d.%d is outside the function", fn.Name, block, idx)
	}
	if nregs != fn.NumRegs {
		return fmt.Errorf("frame of %s has %d registers, want %d", fn.Name, nregs, fn.NumRegs)
	}
	if retDst < -1 || caller != nil && retDst >= len(caller.Regs) {
		return fmt.Errorf("frame of %s returns into register %d", fn.Name, retDst)
	}
	return nil
}

// CheckpointCounters exposes the engine's ID allocators for checkpointing.
// State IDs are the search's deterministic tie-break and object IDs name
// memory inside states, so a resumed engine must continue both sequences
// exactly where the checkpointed one stopped.
func (e *Engine) CheckpointCounters() (nextStateID, nextObjID int) {
	return e.nextStateID, e.nextObjID
}

// RestoreCounters restores the allocators captured by CheckpointCounters.
func (e *Engine) RestoreCounters(nextStateID, nextObjID int) {
	e.nextStateID = nextStateID
	e.nextObjID = nextObjID
}
