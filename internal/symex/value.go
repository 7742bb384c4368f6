// Package symex implements ESD's multi-threaded symbolic virtual machine.
//
// It corresponds to the modified Klee of §6: execution states consist of a
// set of threads (each a stack of frames over virtual registers), an
// address space of word-granular objects, and a path constraint set.
// Executing a branch whose condition is symbolic forks the state;
// synchronization instructions are preemption points at which a pluggable
// scheduling policy (internal/sched) may fork alternative schedules. A
// fork shares with its parent every object, thread, history and sync map
// that neither side writes, and each side copies one only when it first
// writes it (see State), so forks and the policy's K_S snapshots stay
// cheap. The same VM runs fully concretely for user-site fixture
// generation and playback (internal/replay).
package symex

import (
	"fmt"

	"esd/internal/expr"
)

// Value is a runtime value: a symbolic scalar, a pointer, or a function.
// It is two words, one term and one integer, so a pointer value costs no
// allocation and the garbage collector scans one pointer word per
// register or memory cell:
//
//   - a scalar has ref 0 and its term in E (nil: never written);
//   - a pointer has its object's ID in ref (IDs start at 1) and its cell
//     offset, possibly symbolic, in E;
//   - a function has ref fnRef and, in E, the interned variable term named
//     after the function. Interned terms are canonical, so two function
//     values name the same function exactly when they are equal.
type Value struct {
	E   *expr.Expr
	ref int
}

// fnRef is the ref of every function value.
const fnRef = -1

// Scalar wraps a term as a value.
func Scalar(e *expr.Expr) Value { return Value{E: e} }

// IntVal returns a concrete scalar value.
func IntVal(v int64) Value { return Value{E: expr.Const(v)} }

// PtrVal returns a pointer value with concrete offset.
func PtrVal(obj int, off int64) Value { return Value{E: expr.Const(off), ref: obj} }

// FnVal returns a function value.
func FnVal(name string) Value { return Value{E: expr.Var(name), ref: fnRef} }

// IsScalar reports whether v is a scalar.
func (v Value) IsScalar() bool { return v.ref == 0 }

// isPtr reports whether v is a pointer; v.ref is then its object's ID.
func (v Value) isPtr() bool { return v.ref > 0 }

// isFn reports whether v is a function; v.E.Name is then its name.
func (v Value) isFn() bool { return v.ref < 0 }

// IsZero reports whether v is the concrete scalar 0 (the null pointer).
func (v Value) IsZero() bool {
	if !v.IsScalar() || v.E == nil {
		return false
	}
	c, ok := v.E.IsConst()
	return ok && c == 0
}

// String renders the value for debugger output.
func (v Value) String() string {
	switch {
	case v.isPtr():
		return fmt.Sprintf("ptr(obj%d+%s)", v.ref, v.E)
	case v.isFn():
		return fmt.Sprintf("fn(%s)", v.E.Name)
	case v.E == nil:
		return "undef"
	default:
		return v.E.String()
	}
}

// ObjKind classifies memory objects.
type ObjKind int

// Object kinds.
const (
	ObjGlobal ObjKind = iota
	ObjStack
	ObjHeap
	ObjEnv // buffers backing getenv results
)

// String names the kind.
func (k ObjKind) String() string {
	switch k {
	case ObjGlobal:
		return "global"
	case ObjStack:
		return "stack"
	case ObjHeap:
		return "heap"
	case ObjEnv:
		return "env"
	}
	return fmt.Sprintf("ObjKind(%d)", int(k))
}

// Object is a fixed-size array of word cells.
type Object struct {
	ID    int
	Kind  ObjKind
	Size  int
	Name  string // global/env name for diagnostics
	Cells []Value
	// owner is the token of the one state that may write the object in
	// place (see cowOwner); every other state clones it first.
	owner *cowOwner
}

// cellObject is a one-cell Object allocated together with its cell. Most
// stack objects are one cell (a scalar local whose address is taken), so
// an alloca, and the clone of its object, is one allocation.
type cellObject struct {
	Object
	cell [1]Value
}

// newObject returns an object of size zeroed cells.
func newObject(id int, kind ObjKind, size int, name string) *Object {
	if size == 1 {
		c := &cellObject{Object: Object{ID: id, Kind: kind, Size: size, Name: name}}
		c.Cells = c.cell[:]
		return &c.Object
	}
	return &Object{ID: id, Kind: kind, Size: size, Name: name, Cells: make([]Value, size)}
}

func (o *Object) clone() *Object {
	c := newObject(o.ID, o.Kind, len(o.Cells), o.Name)
	c.Size = o.Size
	copy(c.Cells, o.Cells)
	return c
}

// cowOwner is a state's copy-on-write token, its address space's self.
// Every part states may share (an object, a thread, the sync maps) is
// tagged with the token of the one state that writes it in place; any
// other state copies the part first and tags the copy (see State). Its
// non-zero size gives every token its own address.
type cowOwner struct{ _ byte }

// holds reports whether the holder of tok may write a part tagged tag in
// place. A nil token (a frozen state's) holds nothing.
func (tok *cowOwner) holds(tag *cowOwner) bool { return tok != nil && tok == tag }

// freedObj is one entry of an address space's freed log: an object freed
// on this path, newest first. Entries never change, so a fork shares its
// parent's log and each side only prepends to it. An entry is two words:
// the object's ID and kind share the first, the kind in its low
// freedKindBits bits.
type freedObj struct {
	idKind int
	next   *freedObj
}

// freedKindBits holds every ObjKind (only stack and heap objects are ever
// freed).
const freedKindBits = 2

// newFreed returns the freed-log entry of object id, of the given kind,
// ahead of next.
func newFreed(id int, kind ObjKind, next *freedObj) *freedObj {
	return &freedObj{idKind: id<<freedKindBits | int(kind), next: next}
}

func (f *freedObj) id() int       { return f.idKind >> freedKindBits }
func (f *freedObj) kind() ObjKind { return ObjKind(f.idKind & (1<<freedKindBits - 1)) }

// fitsFreed reports whether a freed-log entry holds (id, kind) exactly:
// the kind is an ObjKind and the ID fits beside it. Only a crafted
// checkpoint holds a pair that does not.
func fitsFreed(id int, kind ObjKind) bool {
	f := freedObj{idKind: id<<freedKindBits | int(kind)}
	return f.id() == id && f.kind() == kind
}

// AddrSpace is a copy-on-write map from object IDs to objects. Fork shares
// all objects between parent and child; the first write in either side
// clones the touched object (the Klee object-level COW of §6.1 that makes
// snapshots cheap). self is the token of the space's state (see
// cowOwner): the space writes in place only the objects tagged with it,
// the ones it created or cloned since its last fork.
//
// A freed object leaves the map. The freed log keeps what a later access
// or free of it needs to report: its ID and kind (the objects the VM
// frees, stack and heap, are unnamed). Only a lookup that misses the map
// reads the log, and only a path that uses freed memory misses.
type AddrSpace struct {
	objects map[int]*Object
	freed   *freedObj
	self    *cowOwner
}

// NewAddrSpace returns an empty address space.
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{objects: map[int]*Object{}, self: new(cowOwner)}
}

// Fork returns a copy sharing all objects and the freed log, and gives
// both sides fresh tokens. A space without one (a frozen state's) gets
// none, so forking it only reads it, as frontier-parallel workers do.
func (as *AddrSpace) Fork() *AddrSpace {
	n := &AddrSpace{objects: make(map[int]*Object, len(as.objects)), freed: as.freed, self: new(cowOwner)}
	for id, o := range as.objects {
		n.objects[id] = o
	}
	if as.self != nil {
		as.self = new(cowOwner)
	}
	return n
}

// Add installs a freshly created object, tagged with this space's token.
func (as *AddrSpace) Add(o *Object) {
	o.owner = as.self
	as.objects[o.ID] = o
}

// Object returns the mapped object with the given ID, or nil (for a freed
// object too; see wasFreed).
func (as *AddrSpace) Object(id int) *Object { return as.objects[id] }

// wasFreed reports whether the object with the given ID was freed on
// this path, and its kind.
func (as *AddrSpace) wasFreed(id int) (ObjKind, bool) {
	for f := as.freed; f != nil; f = f.next {
		if f.id() == id {
			return f.kind(), true
		}
	}
	return 0, false
}

// free unmaps the object and logs it as freed. ok is false when no such
// object is mapped. The object itself is returned when it carried this
// space's token: no other space maps it then, so the caller may reuse it.
func (as *AddrSpace) free(id int) (reusable *Object, ok bool) {
	o := as.objects[id]
	if o == nil {
		return nil, false
	}
	delete(as.objects, id)
	as.freed = newFreed(id, o.Kind, as.freed)
	if !as.self.holds(o.owner) {
		return nil, true
	}
	return o, true
}

// writable returns o, which this space maps, ready to be written in
// place: o itself when it carries this space's token, else a clone that
// does.
func (as *AddrSpace) writable(o *Object) *Object {
	if as.self.holds(o.owner) {
		return o
	}
	c := o.clone()
	c.owner = as.self
	as.objects[c.ID] = c
	return c
}

// Read returns the cell at (obj, off); ok is false when out of bounds or
// the object is not mapped.
func (as *AddrSpace) Read(obj int, off int64) (Value, bool) {
	o := as.objects[obj]
	if o == nil || off < 0 || off >= int64(o.Size) {
		return Value{}, false
	}
	v := o.Cells[off]
	if v.E == nil {
		v = IntVal(0) // never-written cells read as zero
	}
	return v, true
}

// Write stores v at (obj, off); false when out of bounds or the object is
// not mapped.
func (as *AddrSpace) Write(obj int, off int64, v Value) bool {
	o := as.objects[obj]
	if o == nil || off < 0 || off >= int64(o.Size) {
		return false
	}
	as.writable(o).Cells[off] = v
	return true
}
