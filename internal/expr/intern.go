package expr

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// This file implements the hash-consing layer: every term is interned in a
// sharded global table at construction, so structurally equal live terms
// are represented by the same pointer. That makes Equal a pointer
// comparison, Hash a field read, and lets every node carry its
// free-variable set, computed once from its (already interned) children.
//
// The table is global rather than threaded through the engine because
// terms flow freely between the VM, the solver, and the search; a shared
// store means a term built by any of them is the term. Shards keep the
// constructor path short and let concurrent engines intern without
// contending on a single lock.
//
// The table holds its nodes weakly, the pattern behind the standard
// unique package: a term nothing references is collected by the garbage
// collector like any other value, and a cleanup registered at intern time
// then removes its entry. The store is therefore bounded by what live
// runs hold, with no sweep, pin, watermark or pause. A term rebuilt after
// its collection is a new node with the same StructKey.

const internShards = 64

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]weak.Pointer[Expr]
}

var shards [internShards]internShard

// Footprint counters, maintained at intern and cleanup time so snapshots
// are O(1): a service polls these per request and per health probe, and
// walking every shard chain under its lock there would stall concurrent
// interning.
var (
	termCount atomic.Int64
	byteCount atomic.Int64
	// internHits/internMisses count constructor traffic: a hit found the
	// canonical node already published, a miss created it.
	internHits   atomic.Int64
	internMisses atomic.Int64
)

const exprNodeSize = int64(unsafe.Sizeof(Expr{}))

// internEntry identifies one node's table entry for its cleanup. It holds
// the node only weakly, so it does not keep the node alive.
type internEntry struct {
	hash  uint64
	wp    weak.Pointer[Expr]
	bytes int64
}

// intern returns the canonical node for the given shape, creating and
// publishing it if it is new. Children must already be interned, so the
// chain comparison is a handful of word compares.
func intern(op Op, c int64, name string, a, b, t, f *Expr) *Expr {
	h := hashParts(op, c, name, a, b, t, f)
	sh := &shards[h%internShards]
	sh.mu.Lock()
	for _, wp := range sh.m[h] {
		// A nil Value is a collected node whose cleanup has not run yet.
		if x := wp.Value(); x != nil && x.Op == op && x.C == c && x.Name == name && x.A == a && x.B == b && x.T == t && x.F == f {
			sh.mu.Unlock()
			internHits.Add(1)
			return x
		}
	}
	e := &Expr{Op: op, C: c, Name: name, A: a, B: b, T: t, F: f, hash: h}
	e.skey = structKeyParts(op, c, name, a, b, t, f)
	if op == OpVar {
		e.vars = []string{name}
	}
	for _, ch := range [...]*Expr{a, b, t, f} {
		if ch != nil {
			e.vars = unionVars(e.vars, ch.vars)
		}
	}
	wp := weak.Make(e)
	if sh.m == nil {
		sh.m = map[uint64][]weak.Pointer[Expr]{}
	}
	sh.m[h] = append(sh.m[h], wp)
	sh.mu.Unlock()
	internMisses.Add(1)
	// A variable's name is counted with its node: there is one live OpVar
	// node per name, and its var-set shares the node's string.
	entry := internEntry{hash: h, wp: wp, bytes: exprNodeSize + int64(len(name))}
	account(1, entry.bytes)
	runtime.AddCleanup(e, forget, entry)
	return e
}

// forget is the cleanup of a collected node: it removes the node's own
// entry, matched by weak-pointer identity, so a live node of the same
// shape interned after the collection keeps its entry.
func forget(k internEntry) {
	sh := &shards[k.hash%internShards]
	sh.mu.Lock()
	chain := sh.m[k.hash]
	for i, wp := range chain {
		if wp == k.wp {
			last := len(chain) - 1
			chain[i] = chain[last]
			chain[last] = weak.Pointer[Expr]{}
			chain = chain[:last]
			break
		}
	}
	if len(chain) == 0 {
		delete(sh.m, k.hash)
	} else {
		sh.m[k.hash] = chain
	}
	sh.mu.Unlock()
	account(-1, -k.bytes)
}

func account(terms, bytes int64) {
	termCount.Add(terms)
	byteCount.Add(bytes)
}

func hashParts(op Op, c int64, name string, a, b, t, f *Expr) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(op))
	mix(uint64(c))
	for i := 0; i < len(name); i++ {
		mix(uint64(name[i]))
	}
	if a != nil {
		mix(a.hash)
	}
	if b != nil {
		mix(b.hash ^ 0x9e3779b97f4a7c15)
	}
	if t != nil {
		mix(t.hash ^ 0xdeadbeef)
	}
	if f != nil {
		mix(f.hash ^ 0xcafebabe)
	}
	return h
}

// Small constants are by far the most constructed terms (offsets, lengths,
// comparison bounds), so they get a lock-free preallocated fast path. The
// cache holds them strongly: they are the interner's floor.
const (
	constCacheMin = -512
	constCacheMax = 1024
)

var constCache [constCacheMax - constCacheMin + 1]*Expr

func init() {
	for v := int64(constCacheMin); v <= constCacheMax; v++ {
		constCache[v-constCacheMin] = intern(OpConst, v, "", nil, nil, nil, nil)
	}
}

// Stats is a point-in-time snapshot of the interner's footprint: the
// terms live runs hold, plus the constant cache.
type Stats struct {
	// Terms is the number of interned terms not yet collected.
	Terms int `json:"terms"`
	// Bytes estimates the retained heap of the terms themselves: node
	// structs plus variable-name storage (table slot overhead excluded).
	Bytes int64 `json:"bytes"`
	// Shards is the fixed shard count of the intern table.
	Shards int `json:"shards"`
	// InternHits/InternMisses count constructor traffic: hits returned an
	// already-published canonical node, misses created one.
	InternHits   int64 `json:"intern_hits"`
	InternMisses int64 `json:"intern_misses"`
}

// InternerStats snapshots the global interner. O(1): the counters are
// maintained at intern and cleanup time, so per-request and health-probe
// polling never touches the shard locks.
func InternerStats() Stats {
	return Stats{
		Terms:        int(termCount.Load()),
		Bytes:        byteCount.Load(),
		Shards:       internShards,
		InternHits:   internHits.Load(),
		InternMisses: internMisses.Load(),
	}
}

// TryReclaim forces a garbage collection, so every term nothing
// references is collected now rather than at the next automatic cycle.
// The collected terms' entries are removed by cleanups shortly after, on
// the runtime's cleanup goroutine, so InternerStats reaches the new floor
// asynchronously.
func TryReclaim() { runtime.GC() }

// --- Variable sets ----------------------------------------------------------

// A node's var-set is the sorted, deduplicated names of its free
// variables. Sets are shared, never copied, between a node and a child
// whose set it equals, and callers must not modify them.

func hasVar(vars []string, name string) bool {
	i := sort.SearchStrings(vars, name)
	return i < len(vars) && vars[i] == name
}

// unionVars merges two sorted sets, returning an input unchanged when it
// already contains the other.
func unionVars(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	merged := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			merged = append(merged, a[i])
			i++
		case a[i] > b[j]:
			merged = append(merged, b[j])
			j++
		default:
			merged = append(merged, a[i])
			i++
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	switch len(merged) {
	case len(a):
		return a
	case len(b):
		return b
	}
	return merged
}
