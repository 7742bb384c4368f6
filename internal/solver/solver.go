// Package solver decides satisfiability of conjunctions of boolean terms
// from internal/expr and produces satisfying models.
//
// It plays the role STP plays for Klee in the ESD paper. The algorithm is a
// classic combination of interval constraint propagation over the integer
// variables with backtracking case-split search: linear constraints tighten
// variable domains, equalities substitute values, and when propagation
// alone cannot decide, the search branches on candidate values mined from
// the constraints themselves (with interval bisection as a fallback).
//
// Components whose conjuncts all mention one variable are decided by
// concrete evaluation wherever that suffices. Before the case split, such a
// component's variable gets a range from the conjuncts that bound it
// directly or through division by a positive constant, which propagation
// does not read through; an empty range, or a small one in which every
// value falsifies some conjunct, is Unsat without a split (refute). Inside
// the split, a candidate value for the last variable left is decided by
// evaluating the conjuncts at it rather than by substituting it and
// searching the folded result (evalLeaf). Neither changes an answer the
// split would give, save that refute may say Unsat where the split would
// say Unknown.
//
// The solver is sound: Sat answers always come with a model that is
// verified by concrete evaluation before being returned, and Unsat is only
// reported when the search space is exhausted. When the node budget runs
// out it answers Unknown, which the symbolic-execution engine treats as
// "abandon this path" (the paper makes the same call for constraints such
// as cryptographic hash inversions, §8).
package solver

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"esd/internal/expr"
)

// Result is the outcome of a satisfiability query.
type Result int

// Query outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

// String returns the textual name of the result.
func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Bounds of the solver's value universe. Variables model program inputs
// (bytes, words); restricting the universe keeps interval arithmetic away
// from int64 overflow while covering every input the evaluated programs
// consume.
const (
	MinValue = -(1 << 40)
	MaxValue = 1 << 40
)

// Solver holds tunables, the memo of component verdicts, and the scratch
// its queries work in. A Solver is not safe for concurrent use: one
// goroutine uses it at a time (each search worker owns one; pools hand one
// to a single run). The scratch makes a query allocate only what outlives
// it — cache entries, published facts, models — and is emptied of terms
// before every query returns, so an idle or pooled solver keeps no term
// from collection.
type Solver struct {
	// MaxNodes bounds the number of search nodes explored per query before
	// answering Unknown.
	MaxNodes int

	// cache is the private memo: it maps each independent component a
	// query partitions into to its verdict, keyed by the canonical
	// structural key of the component (expr.StructKey): the sorted slice
	// of 128-bit structural fingerprints of its conjuncts. Structural keys
	// — unlike node addresses — survive the collection and re-interning of
	// the terms, so a warm pooled solver keeps its facts across requests; a
	// false hit requires a full 128-bit collision between distinct terms,
	// which is negligible against every other failure mode. It holds
	// components only and never evicts: a query's verdict and model follow
	// from its components' entries, so extending a path condition by one
	// conjunct re-solves only the component the new conjunct touches.
	cache map[uint64][]cacheEntry

	// Persist, when non-nil, is the cross-run persistent fact tier:
	// consulted after the private cache misses on a component, published
	// into after a fresh definite verdict. Sat models served from it are
	// re-verified by concrete evaluation before being trusted (see
	// checkComponent), so a corrupt or stale entry degrades to a miss
	// instead of poisoning the run. The engine attaches it to the solvers
	// it hands a synthesis and detaches it before they return to its pool.
	Persist PersistentCache

	// Stats
	Queries int
	// CacheHits counts components answered by the private memo; a query
	// adds one per component it finds there, so a warmer solver never
	// reads fewer hits for the same queries.
	CacheHits int
	// PersistentHits counts component answers served from the attached
	// persistent tier (after surviving verify-on-load).
	PersistentHits int
	// VerifyRejects counts persistent-tier Sat entries whose model failed
	// re-verification and were discarded. A nonzero count means the store
	// holds entries from a different term semantics (or corruption) —
	// harmless for correctness, fatal for its hit rate.
	VerifyRejects int
	// WallNanos accumulates wall time spent answering queries. Search reads
	// its delta around every query batch to attribute synthesis wall time to
	// the solver versus the search loop.
	WallNanos int64

	scratch
}

// scratch is a Solver's per-query working storage.
type scratch struct {
	sub      expr.Subst          // the case split's substitution (substituteAll)
	query    []*expr.Expr        // MayBeTrue/MustBeTrue: path ∧ cond
	flat     []*expr.Expr        // flatten's output
	seen     map[*expr.Expr]bool // flatten's duplicate filter
	parent   []int               // partition's union-find forest
	slot     []int               // partition: root conjunct -> component index
	owner    map[string]int      // partition: variable -> first conjunct mentioning it
	comps    [][]*expr.Expr      // partition's components
	compKeys []expr.StructKey    // structKey of one component
	env      map[string]int64    // evalAt's one-variable environment
}

// dropTerms empties the scratch that holds terms; every query calls it
// before returning.
func (sc *scratch) dropTerms() {
	clear(sc.flat)
	sc.flat = sc.flat[:0]
	for i := range sc.comps {
		clear(sc.comps[i])
	}
	sc.comps = sc.comps[:0]
}

type cacheEntry struct {
	keys  []expr.StructKey // sorted structural keys of the component
	res   Result
	model map[string]int64
}

// New returns a Solver with default limits.
func New() *Solver {
	return &Solver{MaxNodes: 20000, cache: make(map[uint64][]cacheEntry)}
}

// interval is a closed integer range.
type interval struct{ lo, hi int64 }

func fullInterval() interval { return interval{MinValue, MaxValue} }

func (iv interval) empty() bool           { return iv.lo > iv.hi }
func (iv interval) singleton() bool       { return iv.lo == iv.hi }
func (iv interval) width() int64          { return iv.hi - iv.lo }
func (iv interval) contains(v int64) bool { return v >= iv.lo && v <= iv.hi }

func (iv interval) intersect(o interval) interval {
	if o.lo > iv.lo {
		iv.lo = o.lo
	}
	if o.hi < iv.hi {
		iv.hi = o.hi
	}
	return iv
}

// saturating arithmetic keeps interval bounds inside a safe band.
const satLimit = math.MaxInt64 / 4

func satAdd(a, b int64) int64 {
	s := a + b
	if a > 0 && b > 0 && s < 0 {
		return satLimit
	}
	if a < 0 && b < 0 && s > 0 {
		return -satLimit
	}
	return clampSat(s)
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return satLimit
		}
		return -satLimit
	}
	return clampSat(p)
}

func clampSat(v int64) int64 {
	if v > satLimit {
		return satLimit
	}
	if v < -satLimit {
		return -satLimit
	}
	return v
}

// linear is a linear combination sum(coeff[v] * v) + k.
type linear struct {
	coeff map[string]int64
	k     int64
}

// asLinear extracts a linear form from a term, if it is linear.
func asLinear(e *expr.Expr) (linear, bool) {
	switch e.Op {
	case expr.OpConst:
		return linear{k: e.C}, true
	case expr.OpVar:
		return linear{coeff: map[string]int64{e.Name: 1}}, true
	case expr.OpNeg:
		l, ok := asLinear(e.A)
		if !ok {
			return linear{}, false
		}
		return l.scale(-1), true
	case expr.OpAdd, expr.OpSub:
		a, ok := asLinear(e.A)
		if !ok {
			return linear{}, false
		}
		b, ok := asLinear(e.B)
		if !ok {
			return linear{}, false
		}
		if e.Op == expr.OpSub {
			b = b.scale(-1)
		}
		return a.add(b), true
	case expr.OpMul:
		if c, ok := e.B.IsConst(); ok {
			l, lok := asLinear(e.A)
			if !lok {
				return linear{}, false
			}
			return l.scale(c), true
		}
		if c, ok := e.A.IsConst(); ok {
			l, lok := asLinear(e.B)
			if !lok {
				return linear{}, false
			}
			return l.scale(c), true
		}
	}
	return linear{}, false
}

func (l linear) scale(c int64) linear {
	out := linear{k: satMul(l.k, c), coeff: map[string]int64{}}
	for v, co := range l.coeff {
		out.coeff[v] = satMul(co, c)
	}
	return out
}

func (l linear) add(o linear) linear {
	out := linear{k: satAdd(l.k, o.k), coeff: map[string]int64{}}
	for v, co := range l.coeff {
		out.coeff[v] = co
	}
	for v, co := range o.coeff {
		out.coeff[v] = satAdd(out.coeff[v], co)
		if out.coeff[v] == 0 {
			delete(out.coeff, v)
		}
	}
	return out
}

// Check decides satisfiability of the conjunction of the given boolean
// terms. On Sat, the returned model maps every free variable to a value
// that is verified to satisfy all constraints.
func (s *Solver) Check(constraints []*expr.Expr) (Result, map[string]int64) {
	model := map[string]int64{}
	if res := s.decide(constraints, model); res != Sat {
		return res, nil
	}
	return Sat, model
}

// decide answers a query from its independent components and, when model
// is non-nil, copies every Sat component's model into it. The verdict is a
// pure function of the component verdicts, which the private memo keeps
// for the solver's lifetime, so a repeated query costs one flatten, one
// partition and one memo lookup per component, and no key is built over
// the whole query.
func (s *Solver) decide(constraints []*expr.Expr, model map[string]int64) Result {
	start := time.Now()
	defer func() {
		s.dropTerms()
		ns := time.Since(start).Nanoseconds()
		s.WallNanos += ns
		solverWall.Add(ns)
	}()
	s.Queries++
	solverQueries.Inc()

	cs := s.flatten(constraints)
	// Trivial scan first.
	for _, c := range cs {
		if v, ok := c.IsConst(); ok && v == 0 {
			return Unsat
		}
	}
	cs = dropTrue(cs)
	if len(cs) == 0 {
		return Sat
	}

	// Independence partitioning: conjuncts over disjoint variable sets
	// cannot influence each other, so each connected component is decided
	// (and cached) on its own. Path-condition queries grow by one conjunct
	// at a time, so all but the touched component hit the cache.
	res := Sat
	for _, comp := range s.partition(cs) {
		solverComponentSize.Observe(int64(len(comp)))
		r, m := s.checkComponent(comp)
		switch {
		case r == Unsat:
			return Unsat
		case r == Unknown:
			res = Unknown // keep scanning: a later Unsat component dominates
		case model != nil:
			maps.Copy(model, m)
		}
	}
	// No full-query re-verification: every Sat component model was verified
	// by concrete evaluation before it was cached (checkComponent), and
	// components have disjoint variable sets, so the merged model satisfies
	// the conjunction by construction.
	return res
}

// checkComponent decides one variable-connected constraint group, with its
// own cache entry keyed by the group's canonical structural key. The tier
// order is private → persistent (cross-run, verify-on-load) → solve.
func (s *Solver) checkComponent(cs []*expr.Expr) (Result, map[string]int64) {
	key, keys := structKey(s.compKeys, cs)
	s.compKeys = keys
	if ent, ok := s.cacheGet(key, keys); ok {
		s.CacheHits++
		componentHits.Inc()
		return ent.res, ent.model
	}
	componentMisses.Inc()
	if s.Persist != nil {
		if res, model, ok := s.Persist.Lookup(keys); ok {
			// Cross-run entry. Sat models are re-verified by concrete
			// evaluation against the *actual* terms before being trusted:
			// a corrupt, stale, or key-colliding entry becomes a counted
			// miss, never a wrong answer — the SynFuzz-style safety
			// argument (cheap answers are fine when replay re-checks them).
			// Unsat needs no model and cannot be re-verified; its safety
			// rests on the 128-bit key width.
			if res == Unsat || modelSatisfies(cs, model) {
				s.PersistentHits++
				persistentHits.Inc()
				s.cachePut(key, keys, res, model)
				return res, model
			}
			s.VerifyRejects++
			persistVerifyRejects.Inc()
		} else {
			persistentMisses.Inc()
		}
	}
	st := &searchState{
		solver:  s,
		budget:  s.MaxNodes,
		domains: map[string]interval{},
	}
	for _, c := range cs {
		for _, v := range c.Vars() {
			if _, ok := st.domains[v]; !ok {
				st.domains[v] = fullInterval()
			}
		}
	}
	res, model := Unsat, map[string]int64(nil)
	if !s.refute(cs) {
		res, model = st.search(cs)
	}
	if res == Sat && !modelSatisfies(cs, model) {
		// Verify before caching: a bogus model must not enter the cache as Sat.
		res, model = Unknown, nil
	}
	owned := s.cachePut(key, keys, res, model)
	if s.Persist != nil && res != Unknown {
		s.Persist.Publish(owned, res, model)
	}
	return res, model
}

// refute reports whether a component over one variable x is unsatisfiable
// by evaluation alone. It intersects the universe with the range of every
// conjunct that bounds x directly or through division by a positive
// constant (rangeOf). An empty range is Unsat; so is a range narrower than
// enumWidth in which every value sends some conjunct to 0. It never answers
// Sat: a component it cannot refute goes to the case split unchanged, so
// every Sat model is the case split's.
func (s *Solver) refute(cs []*expr.Expr) bool {
	x := soleVar(cs)
	if x == "" {
		return false
	}
	r := fullInterval()
	for _, c := range cs {
		r = r.intersect(rangeOf(c))
	}
	if r.empty() {
		return true
	}
	if r.width() >= enumWidth {
		return false
	}
	for v := r.lo; v <= r.hi; v++ {
		if s.evalAt(cs, x, v) != evalFalse {
			return false
		}
	}
	return true
}

// rangeOf returns an interval holding every x that satisfies c when c is
// "x REL k" or "(x / d) REL k" with constants k and d > 0, and the universe
// for any other conjunct. Bounds that leave the int64 range saturate, which
// keeps them beyond the universe on the side they fall.
func rangeOf(c *expr.Expr) interval {
	op := c.Op
	switch op {
	case expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
	default:
		return fullInterval()
	}
	k, ok := c.B.IsConst()
	if !ok {
		return fullInterval()
	}
	// x is x/1, so the division rules below serve both shapes.
	x, d := c.A, int64(1)
	if x.Op == expr.OpDiv {
		if d, ok = x.B.IsConst(); !ok || d <= 0 {
			return fullInterval()
		}
		x = x.A
	}
	if x.Op != expr.OpVar {
		return fullInterval()
	}
	// x/d < k is x/d <= k-1, and x/d > k is x/d >= k+1.
	switch op {
	case expr.OpLt:
		op, k = expr.OpLe, satAdd(k, -1)
	case expr.OpGt:
		op, k = expr.OpGe, satAdd(k, 1)
	}
	// Division truncates toward zero: x/d <= k holds up to the last x of
	// k's quotient run (k·d+d-1 for k >= 0, k·d below zero), and x/d >= k
	// from the first (k·d above zero, k·d-d+1 for k <= 0).
	r := interval{-satLimit, satLimit}
	if op != expr.OpGe {
		r.hi = satMul(k, d)
		if k >= 0 {
			r.hi = satAdd(r.hi, d-1)
		}
	}
	if op != expr.OpLe {
		r.lo = satMul(k, d)
		if k <= 0 {
			r.lo = satAdd(r.lo, 1-d)
		}
	}
	return r
}

// soleVar returns the variable every conjunct mentions when it is the only
// one each mentions, and "" otherwise.
func soleVar(cs []*expr.Expr) string {
	x := ""
	for _, c := range cs {
		vars := c.Vars()
		if len(vars) != 1 || (x != "" && vars[0] != x) {
			return ""
		}
		x = vars[0]
	}
	return x
}

// evalOutcome is the verdict of a conjunct list at one point.
type evalOutcome int

const (
	evalTrue  evalOutcome = iota // every conjunct evaluates to nonzero
	evalFalse                    // some conjunct evaluates to 0
	evalError                    // none does, but one fails to evaluate
)

// evalAt evaluates the conjuncts at x = v; x must be the only variable
// they mention. A conjunct that evaluates to 0 decides the point even when
// another fails to evaluate (division by zero, a shift out of range). The
// environment is the solver's scratch, so a point allocates nothing.
func (sc *scratch) evalAt(cs []*expr.Expr, x string, v int64) evalOutcome {
	if sc.env == nil {
		sc.env = map[string]int64{}
	}
	clear(sc.env)
	sc.env[x] = v
	out := evalTrue
	for _, c := range cs {
		r, err := c.Eval(sc.env)
		if err != nil {
			out = evalError
		} else if r == 0 {
			return evalFalse
		}
	}
	return out
}

// modelSatisfies reports whether the model makes every conjunct true under
// concrete evaluation (unpinned variables default to zero).
func modelSatisfies(cs []*expr.Expr, model map[string]int64) bool {
	for _, c := range cs {
		v, err := c.Eval(completeModel(model, c))
		if err != nil || v == 0 {
			return false
		}
	}
	return true
}

// partition splits conjuncts into connected components of the
// variable-sharing graph, preserving conjunct order within each component.
// Variable-free conjuncts form their own singleton components. The
// components live in the solver's scratch until the query returns.
func (s *Solver) partition(cs []*expr.Expr) [][]*expr.Expr {
	s.comps = s.comps[:0]
	if len(cs) <= 1 {
		gi := s.newComp()
		s.comps[gi] = append(s.comps[gi], cs...)
		return s.comps
	}
	// Union-find over conjunct indices, joined through variables.
	parent := s.parent[:0]
	for i := range cs {
		parent = append(parent, i)
	}
	s.parent = parent
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	if s.owner == nil {
		s.owner = map[string]int{}
	}
	for i, c := range cs {
		for _, v := range c.Vars() {
			if j, ok := s.owner[v]; ok {
				parent[find(i)] = find(j)
			} else {
				s.owner[v] = i
			}
		}
	}
	clear(s.owner)
	slot := s.slot[:0]
	for range cs {
		slot = append(slot, -1)
	}
	s.slot = slot
	for i, c := range cs {
		r := find(i)
		if slot[r] < 0 {
			slot[r] = s.newComp()
		}
		s.comps[slot[r]] = append(s.comps[slot[r]], c)
	}
	return s.comps
}

// newComp appends an empty component to the scratch, reusing the storage a
// component at that index had in an earlier query, and returns its index.
func (s *Solver) newComp() int {
	n := len(s.comps)
	if n < cap(s.comps) {
		s.comps = s.comps[:n+1]
		s.comps[n] = s.comps[n][:0]
	} else {
		s.comps = append(s.comps, nil)
	}
	return n
}

// MayBeTrue reports whether cond can be true under the path constraints.
func (s *Solver) MayBeTrue(path []*expr.Expr, cond *expr.Expr) (bool, Result) {
	res := s.checkWith(path, expr.Truth(cond))
	return res == Sat, res
}

// MustBeTrue reports whether cond is implied by the path constraints
// (i.e. path ∧ ¬cond is unsatisfiable).
func (s *Solver) MustBeTrue(path []*expr.Expr, cond *expr.Expr) (bool, Result) {
	res := s.checkWith(path, expr.Not(cond))
	return res == Unsat, res
}

// checkWith decides path ∧ c, building the conjunction in the solver's
// scratch. It merges no model: its callers read only the verdict.
func (s *Solver) checkWith(path []*expr.Expr, c *expr.Expr) Result {
	s.query = append(append(s.query[:0], path...), c)
	res := s.decide(s.query, nil)
	clear(s.query)
	return res
}

// completeModel fills in zero for variables the search never needed to pin.
func completeModel(model map[string]int64, c *expr.Expr) map[string]int64 {
	env := make(map[string]int64, len(model))
	for k, v := range model {
		env[k] = v
	}
	for _, v := range c.Vars() {
		if _, ok := env[v]; !ok {
			env[v] = 0
		}
	}
	return env
}

// structKey canonicalizes a component to its sorted structural-key slice
// plus a 64-bit bucket hash of it. The slice is the exact cache key
// (compared in full by matchEntry); the bucket hash only picks the chain.
// A component repeats no key: flatten drops repeated terms, and interning
// gives structurally equal terms one pointer. Because structural keys are
// stable across collections, restarts, and processes, the same component
// always canonicalizes to the same key everywhere — the property the
// persistent tier is built on. The keys are built in dst's
// storage, so whatever keeps them past the query must copy them (cachePut
// does).
func structKey(dst []expr.StructKey, cs []*expr.Expr) (uint64, []expr.StructKey) {
	keys := dst[:0]
	for _, c := range cs {
		keys = append(keys, c.StructuralKey())
	}
	slices.SortFunc(keys, expr.StructKey.Compare)
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, k := range keys {
		h ^= k.Hi
		h *= prime
		h ^= k.Lo
		h *= prime
	}
	return h, keys
}

// matchEntry returns the index of the entry with exactly these structural
// keys in the chain, or -1.
func matchEntry(chain []cacheEntry, keys []expr.StructKey) int {
outer:
	for i, ent := range chain {
		if len(ent.keys) != len(keys) {
			continue
		}
		for j, k := range keys {
			if ent.keys[j] != k {
				continue outer
			}
		}
		return i
	}
	return -1
}

func (s *Solver) cacheGet(key uint64, keys []expr.StructKey) (cacheEntry, bool) {
	chain := s.cache[key]
	if i := matchEntry(chain, keys); i >= 0 {
		return chain[i], true
	}
	return cacheEntry{}, false
}

// cachePut stores the verdict of a component the private memo missed
// under keys (which may be scratch) and returns the entry's own copy of
// them, which the persistent tier may keep too.
func (s *Solver) cachePut(key uint64, keys []expr.StructKey, res Result, model map[string]int64) []expr.StructKey {
	keys = slices.Clone(keys)
	s.cache[key] = append(s.cache[key], cacheEntry{keys: keys, res: res, model: model})
	return keys
}

// flatten splits top-level logical-ands into separate conjuncts and drops
// duplicate conjuncts (identity comparison — terms are interned), which is
// what keeps a repeated conjunct out of a component's key. The result
// lives in the solver's scratch until the query returns.
func (s *Solver) flatten(cs []*expr.Expr) []*expr.Expr {
	if s.seen == nil {
		s.seen = map[*expr.Expr]bool{}
	}
	s.flat = s.flat[:0]
	for _, c := range cs {
		s.flattenConj(c)
	}
	clear(s.seen)
	return s.flat
}

func (s *Solver) flattenConj(e *expr.Expr) {
	if e.Op == expr.OpLAnd {
		s.flattenConj(e.A)
		s.flattenConj(e.B)
		return
	}
	t := expr.Truth(e)
	if !s.seen[t] {
		s.seen[t] = true
		s.flat = append(s.flat, t)
	}
}

func dropTrue(cs []*expr.Expr) []*expr.Expr {
	out := cs[:0]
	for _, c := range cs {
		if v, ok := c.IsConst(); ok && v != 0 {
			continue
		}
		out = append(out, c)
	}
	return out
}

type searchState struct {
	solver  *Solver
	budget  int
	domains map[string]interval
	model   map[string]int64
	// trail records domain overwrites for O(1)-amortized backtracking
	// (mutate + undo instead of cloning the domain map per search node).
	trail []trailEntry
}

type trailEntry struct {
	v       string
	old     interval
	existed bool
}

// setDom overwrites a domain, recording the old value on the trail.
func (st *searchState) setDom(v string, iv interval) {
	old, existed := st.domains[v]
	st.trail = append(st.trail, trailEntry{v, old, existed})
	st.domains[v] = iv
}

// undo rolls the domains back to a trail mark.
func (st *searchState) undo(mark int) {
	for i := len(st.trail) - 1; i >= mark; i-- {
		e := st.trail[i]
		if e.existed {
			st.domains[e.v] = e.old
		} else {
			delete(st.domains, e.v)
		}
	}
	st.trail = st.trail[:mark]
}

// dom returns the variable's domain, defaulting to the full universe for
// variables not yet tracked.
func (st *searchState) dom(v string) interval {
	if d, ok := st.domains[v]; ok {
		return d
	}
	return fullInterval()
}

func (st *searchState) search(cs []*expr.Expr) (Result, map[string]int64) {
	if st.budget <= 0 {
		return Unknown, nil
	}
	st.budget--

	// Propagate until fixpoint.
	cs, res := st.propagate(cs)
	switch res {
	case Unsat:
		return Unsat, nil
	}
	if len(cs) == 0 {
		return Sat, st.leafModel()
	}

	// Choose branch variable: smallest domain among vars in remaining
	// constraints, to maximize pruning.
	v := st.pickVar(cs)
	if v == "" {
		// Constraints remain but no free vars: simplification failed to
		// fold them; evaluate under an empty env would have folded. Treat
		// as unknown.
		return Unknown, nil
	}
	dom := st.dom(v)

	// Candidate values: constants from constraints mentioning v, domain
	// endpoints, zero, midpoint.
	cands := st.candidates(cs, v, dom)
	last := soleVar(cs) == v
	sawUnknown := false
	for _, val := range cands {
		var r Result
		var m map[string]int64
		decided := false
		if last {
			r, m, decided = st.evalLeaf(cs, v, val)
		}
		if !decided {
			mark := len(st.trail)
			st.setDom(v, interval{val, val})
			r, m = st.search(st.solver.substituteAll(cs, v, val))
			st.undo(mark)
		}
		if r == Sat {
			m[v] = val
			return Sat, m
		}
		if r == Unknown {
			sawUnknown = true
		}
		if st.budget <= 0 {
			return Unknown, nil
		}
	}
	// Bisection fallback: split the domain in halves excluding tried points.
	if dom.width() > int64(len(cands)) {
		mid := dom.lo + dom.width()/2
		for _, half := range []interval{{dom.lo, mid}, {mid + 1, dom.hi}} {
			if half.empty() {
				continue
			}
			mark := len(st.trail)
			st.setDom(v, half)
			r, m := st.search(cs)
			st.undo(mark)
			if r == Sat {
				return Sat, m
			}
			if r == Unknown {
				sawUnknown = true
			}
			if st.budget <= 0 {
				return Unknown, nil
			}
		}
		return unsatOrUnknown(sawUnknown), nil
	}
	// Domain exhausted by candidates only if candidates covered it fully.
	if int64(len(cands)) > dom.width() {
		return unsatOrUnknown(sawUnknown), nil
	}
	return Unknown, nil
}

// leafModel is the model of a node whose constraints are all discharged:
// each variable takes 0 if its domain holds 0, else its domain's low end.
func (st *searchState) leafModel() map[string]int64 {
	model := make(map[string]int64, len(st.domains))
	for v, d := range st.domains {
		val := int64(0)
		if !d.contains(0) {
			val = d.lo
		}
		model[v] = val
	}
	return model
}

// evalLeaf decides the child node x = val by evaluation, where x is the
// only variable cs mentions. Substituting a constant for the last variable
// folds each conjunct through Binary, Unary and Ite, whose folding is the
// evalBinConst that Eval uses, so wherever Eval succeeds it gives the
// child's answer: Sat with the leaf model when every conjunct holds, Unsat
// when one is 0. The child's budget check and node are spent here. When a
// conjunct fails to evaluate and none is 0, decided is false and the child
// takes the substitution path.
func (st *searchState) evalLeaf(cs []*expr.Expr, x string, val int64) (res Result, model map[string]int64, decided bool) {
	if st.budget <= 0 {
		return Unknown, nil, true
	}
	out := st.solver.evalAt(cs, x, val)
	if out == evalError {
		return Unknown, nil, false
	}
	st.budget--
	if out == evalFalse {
		return Unsat, nil, true
	}
	return Sat, st.leafModel(), true
}

func unsatOrUnknown(sawUnknown bool) Result {
	if sawUnknown {
		return Unknown
	}
	return Unsat
}

// substituteAll returns cs with v replaced by val. One Subst serves the
// whole set, so subtrees common to several constraints are rewritten once;
// constraints whose cached var-set misses v are returned as-is by Apply
// (no walk, no copy). The Subst is the solver's own, retargeted here and
// emptied before returning, so its memo's storage is reused by every
// substitution of every query and pins no term in between.
func (s *Solver) substituteAll(cs []*expr.Expr, v string, val int64) []*expr.Expr {
	out := make([]*expr.Expr, 0, len(cs))
	s.sub.Reset(v, expr.Const(val))
	for _, e := range cs {
		out = append(out, s.sub.Apply(e))
	}
	s.sub.Reset("", nil)
	return out
}

// maxPropagateRounds caps the fixpoint iteration of propagate. Interval
// propagation over difference constraints can converge by one unit per
// round (e.g. an unsatisfiable "x >= y && x < y" over unbounded inputs
// walks each bound across the whole value universe), so the loop must not
// run to natural fixpoint unconditionally. Real constraint sets settle in
// a handful of rounds; a capped-out set is returned undecided and the
// case-split search takes over.
const maxPropagateRounds = 256

// refuteOpposing detects directly contradictory linear constraints: two
// (or more) relations over the same linear combination of variables whose
// allowed intervals do not intersect, e.g. "x - y >= 0" and "x - y < 0".
// Interval propagation alone needs O(domain width) rounds to refute these
// (see maxPropagateRounds); this closes the gap in one pass.
func refuteOpposing(cs []*expr.Expr) bool {
	var bounds map[string]interval
	for _, c := range cs {
		switch c.Op {
		case expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		default:
			continue
		}
		la, aok := asLinear(c.A)
		lb, bok := asLinear(c.B)
		if !aok || !bok {
			continue
		}
		diff := la.add(lb.scale(-1)) // diff REL 0
		if len(diff.coeff) == 0 {
			continue
		}
		key, allowed, ok := linAllowed(c.Op, diff)
		if !ok {
			continue
		}
		if bounds == nil {
			bounds = map[string]interval{}
		}
		if prev, seen := bounds[key]; seen {
			allowed = allowed.intersect(prev)
			if allowed.empty() {
				return true
			}
		}
		bounds[key] = allowed
	}
	return false
}

// linAllowed canonicalizes "lin REL 0" into a key identifying the variable
// part S = Σ coeff·x (variables sorted, leading coefficient made positive)
// and the interval of values REL permits for S. Ne constraints are skipped
// (they exclude one point, not an interval).
func linAllowed(op expr.Op, lin linear) (string, interval, bool) {
	vars := make([]string, 0, len(lin.coeff))
	for v := range lin.coeff {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	sign := int64(1)
	if lin.coeff[vars[0]] < 0 {
		sign = -1
	}
	// S + k REL 0  =>  S REL -k (S already sign-normalized below).
	var allowed interval
	k := lin.k
	switch op {
	case expr.OpEq:
		allowed = interval{-k, -k}
	case expr.OpLe:
		allowed = interval{-satLimit, -k}
	case expr.OpLt:
		allowed = interval{-satLimit, satAdd(-k, -1)}
	case expr.OpGe:
		allowed = interval{-k, satLimit}
	case expr.OpGt:
		allowed = interval{satAdd(-k, 1), satLimit}
	default:
		return "", interval{}, false
	}
	if sign < 0 {
		allowed = interval{-allowed.hi, -allowed.lo}
	}
	var b strings.Builder
	for _, v := range vars {
		fmt.Fprintf(&b, "%s*%d;", v, sign*lin.coeff[v])
	}
	return b.String(), allowed, true
}

// propagate tightens domains from linear constraints and discharges folded
// constraints. Returns the remaining constraint set. The caller's slice is
// left untouched: callers re-search, re-split, and re-verify the set they
// passed in, so filtering it in place would silently weaken those later
// passes (dropped conjuncts vanish, compacted ones duplicate) and let an
// unsound Sat survive verification.
func (st *searchState) propagate(cs []*expr.Expr) ([]*expr.Expr, Result) {
	if refuteOpposing(cs) {
		return nil, Unsat
	}
	cs = append(make([]*expr.Expr, 0, len(cs)), cs...)
	for rounds := 0; ; rounds++ {
		if rounds >= maxPropagateRounds {
			return cs, Unknown // capped out: let the case split decide
		}
		changed := false
		next := cs[:0:len(cs)]
		for _, c := range cs {
			if v, ok := c.IsConst(); ok {
				if v == 0 {
					return nil, Unsat
				}
				continue // satisfied, drop
			}
			tightened, keep, feasible := st.tighten(c)
			if !feasible {
				return nil, Unsat
			}
			if tightened {
				changed = true
			}
			if keep {
				next = append(next, c)
			}
		}
		cs = next
		// Singleton domains substitute through the constraints.
		for v, d := range st.domains {
			if d.empty() {
				return nil, Unsat
			}
			if d.singleton() {
				mentioned := false
				for _, c := range cs {
					if c.HasVar(v) {
						mentioned = true
						break
					}
				}
				if mentioned {
					cs = st.solver.substituteAll(cs, v, d.lo)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return cs, Unknown
}

// tighten applies one constraint to the domains. Returns whether any domain
// changed, whether the constraint must be kept, and whether it remains
// feasible.
func (st *searchState) tighten(c *expr.Expr) (changed, keep, feasible bool) {
	// Interval check of the whole boolean term.
	iv := st.evalInterval(c)
	if iv.hi == 0 && iv.lo == 0 {
		return false, false, false // constraint is definitely false
	}
	if iv.lo > 0 || iv.hi < 0 {
		return false, false, true // definitely non-zero: satisfied
	}

	// Pattern: linear REL linear  =>  (a-b) REL 0.
	switch c.Op {
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		la, aok := asLinear(c.A)
		lb, bok := asLinear(c.B)
		if aok && bok {
			diff := la.add(lb.scale(-1)) // diff REL 0
			ch, feas := st.tightenLinear(c.Op, diff)
			return ch, true, feas
		}
	}
	return false, true, true
}

// tightenLinear tightens domains for "lin REL 0".
func (st *searchState) tightenLinear(op expr.Op, lin linear) (changed, feasible bool) {
	// Compute bound for each variable from the others:
	// ci*xi = -k - sum(cj*xj, j != i), then divide.
	// First the constant-only case.
	if len(lin.coeff) == 0 {
		v, _ := evalRel(op, lin.k)
		return false, v
	}
	lo, hi := int64(lin.k), int64(lin.k)
	type contrib struct {
		v      string
		c      int64
		lo, hi int64
	}
	parts := make([]contrib, 0, len(lin.coeff))
	for v, cf := range lin.coeff {
		d := st.dom(v)
		a, b := satMul(cf, d.lo), satMul(cf, d.hi)
		if a > b {
			a, b = b, a
		}
		parts = append(parts, contrib{v, cf, a, b})
		lo, hi = satAdd(lo, a), satAdd(hi, b)
	}
	// Feasibility of lin REL 0 given [lo,hi].
	switch op {
	case expr.OpEq:
		if lo > 0 || hi < 0 {
			return false, false
		}
	case expr.OpNe:
		if lo == 0 && hi == 0 {
			return false, false
		}
	case expr.OpLt:
		if lo >= 0 {
			return false, false
		}
	case expr.OpLe:
		if lo > 0 {
			return false, false
		}
	case expr.OpGt:
		if hi <= 0 {
			return false, false
		}
	case expr.OpGe:
		if hi < 0 {
			return false, false
		}
	}
	// Domain tightening per variable for Eq / Le / Ge / Lt / Gt.
	for _, p := range parts {
		// rest = [lo - p.range]
		restLo, restHi := satAdd(lo, -p.lo), satAdd(hi, -p.hi)
		// Constraint: p.c * x + rest REL 0  =>  p.c*x REL -rest
		// p.c*x in [needLo, needHi] depending on REL.
		var needLo, needHi int64
		switch op {
		case expr.OpEq:
			needLo, needHi = -restHi, -restLo
		case expr.OpLe:
			needLo, needHi = math.MinInt64/4, -restLo
		case expr.OpLt:
			needLo, needHi = math.MinInt64/4, satAdd(-restLo, -1)
		case expr.OpGe:
			needLo, needHi = -restHi, math.MaxInt64/4
		case expr.OpGt:
			needLo, needHi = satAdd(-restHi, 1), math.MaxInt64/4
		default:
			continue // Ne does not tighten intervals
		}
		var nd interval
		if p.c > 0 {
			nd = interval{ceilDiv(needLo, p.c), floorDiv(needHi, p.c)}
		} else {
			nd = interval{ceilDiv(needHi, p.c), floorDiv(needLo, p.c)}
		}
		cur := st.dom(p.v)
		ni := cur.intersect(nd)
		if ni.empty() {
			return changed, false
		}
		if ni != cur {
			st.setDom(p.v, ni)
			changed = true
		}
	}
	return changed, true
}

func evalRel(op expr.Op, v int64) (bool, bool) {
	switch op {
	case expr.OpEq:
		return v == 0, true
	case expr.OpNe:
		return v != 0, true
	case expr.OpLt:
		return v < 0, true
	case expr.OpLe:
		return v <= 0, true
	case expr.OpGt:
		return v > 0, true
	case expr.OpGe:
		return v >= 0, true
	}
	return false, false
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// evalInterval computes an interval bound of e under current domains.
func (st *searchState) evalInterval(e *expr.Expr) interval {
	switch e.Op {
	case expr.OpConst:
		return interval{e.C, e.C}
	case expr.OpVar:
		if d, ok := st.domains[e.Name]; ok {
			return d
		}
		return fullInterval()
	case expr.OpNeg:
		a := st.evalInterval(e.A)
		return interval{-a.hi, -a.lo}
	case expr.OpNot:
		a := st.evalInterval(e.A)
		if a.lo > 0 || a.hi < 0 {
			return interval{0, 0}
		}
		if a.lo == 0 && a.hi == 0 {
			return interval{1, 1}
		}
		return interval{0, 1}
	case expr.OpBNot:
		return fullInterval()
	case expr.OpIte:
		c := st.evalInterval(e.A)
		t := st.evalInterval(e.T)
		f := st.evalInterval(e.F)
		if c.lo > 0 || c.hi < 0 {
			return t
		}
		if c.lo == 0 && c.hi == 0 {
			return f
		}
		return interval{minI(t.lo, f.lo), maxI(t.hi, f.hi)}
	case expr.OpAdd:
		a, b := st.evalInterval(e.A), st.evalInterval(e.B)
		return interval{satAdd(a.lo, b.lo), satAdd(a.hi, b.hi)}
	case expr.OpSub:
		a, b := st.evalInterval(e.A), st.evalInterval(e.B)
		return interval{satAdd(a.lo, -b.hi), satAdd(a.hi, -b.lo)}
	case expr.OpMul:
		a, b := st.evalInterval(e.A), st.evalInterval(e.B)
		p1, p2 := satMul(a.lo, b.lo), satMul(a.lo, b.hi)
		p3, p4 := satMul(a.hi, b.lo), satMul(a.hi, b.hi)
		return interval{minI(minI(p1, p2), minI(p3, p4)), maxI(maxI(p1, p2), maxI(p3, p4))}
	case expr.OpDiv:
		// Constant positive divisor: quotient interval.
		if d, ok := e.B.IsConst(); ok && d != 0 {
			a := st.evalInterval(e.A)
			q1, q2 := a.lo/d, a.hi/d
			if q1 > q2 {
				q1, q2 = q2, q1
			}
			return interval{q1, q2}
		}
		return fullInterval()
	case expr.OpMod:
		if d, ok := e.B.IsConst(); ok && d != 0 {
			if d < 0 {
				d = -d
			}
			a := st.evalInterval(e.A)
			if a.lo >= 0 {
				if a.hi < d {
					return a // no wrap
				}
				return interval{0, d - 1}
			}
			return interval{-(d - 1), d - 1}
		}
		return fullInterval()
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		a, b := st.evalInterval(e.A), st.evalInterval(e.B)
		return cmpInterval(e.Op, a, b)
	case expr.OpLAnd:
		a, b := st.evalInterval(e.A), st.evalInterval(e.B)
		at, bt := truthiness(a), truthiness(b)
		if at == 0 || bt == 0 {
			return interval{0, 0}
		}
		if at == 1 && bt == 1 {
			return interval{1, 1}
		}
		return interval{0, 1}
	case expr.OpLOr:
		a, b := st.evalInterval(e.A), st.evalInterval(e.B)
		at, bt := truthiness(a), truthiness(b)
		if at == 1 || bt == 1 {
			return interval{1, 1}
		}
		if at == 0 && bt == 0 {
			return interval{0, 0}
		}
		return interval{0, 1}
	default:
		return fullInterval()
	}
}

// truthiness: 0 = definitely false, 1 = definitely true, -1 = unknown.
func truthiness(iv interval) int {
	if iv.lo > 0 || iv.hi < 0 {
		return 1
	}
	if iv.lo == 0 && iv.hi == 0 {
		return 0
	}
	return -1
}

func cmpInterval(op expr.Op, a, b interval) interval {
	switch op {
	case expr.OpEq:
		if a.singleton() && b.singleton() && a.lo == b.lo {
			return interval{1, 1}
		}
		if a.lo > b.hi || a.hi < b.lo {
			return interval{0, 0}
		}
	case expr.OpNe:
		if a.singleton() && b.singleton() && a.lo == b.lo {
			return interval{0, 0}
		}
		if a.lo > b.hi || a.hi < b.lo {
			return interval{1, 1}
		}
	case expr.OpLt:
		if a.hi < b.lo {
			return interval{1, 1}
		}
		if a.lo >= b.hi {
			return interval{0, 0}
		}
	case expr.OpLe:
		if a.hi <= b.lo {
			return interval{1, 1}
		}
		if a.lo > b.hi {
			return interval{0, 0}
		}
	case expr.OpGt:
		if a.lo > b.hi {
			return interval{1, 1}
		}
		if a.hi <= b.lo {
			return interval{0, 0}
		}
	case expr.OpGe:
		if a.lo >= b.hi {
			return interval{1, 1}
		}
		if a.hi < b.lo {
			return interval{0, 0}
		}
	}
	return interval{0, 1}
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// pickVar chooses the unassigned variable with the smallest domain among
// those mentioned by remaining constraints.
func (st *searchState) pickVar(cs []*expr.Expr) string {
	seen := map[string]bool{}
	best := ""
	var bestW int64 = math.MaxInt64
	for _, c := range cs {
		for _, v := range c.Vars() {
			if seen[v] {
				continue
			}
			seen[v] = true
			d := st.dom(v)
			if d.singleton() {
				continue
			}
			if w := d.width(); w < bestW || (w == bestW && v < best) || best == "" {
				best, bestW = v, d.width()
			}
		}
	}
	return best
}

// enumWidth is the width under which a variable's values are enumerated
// outright: candidates lists every value of a narrower domain, and refute
// tries every value of a narrower range.
const enumWidth = 64

// candidates mines promising concrete values for variable v.
func (st *searchState) candidates(cs []*expr.Expr, v string, dom interval) []int64 {
	set := map[int64]bool{}
	add := func(x int64) {
		if dom.contains(x) {
			set[x] = true
		}
	}
	var mine func(e *expr.Expr)
	mine = func(e *expr.Expr) {
		if e == nil {
			return
		}
		// x REL const patterns (after expr normalization the constant is on
		// the right).
		switch e.Op {
		case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			if c, ok := e.B.IsConst(); ok && e.A.HasVar(v) {
				add(c)
				add(c - 1)
				add(c + 1)
			}
		}
		mine(e.A)
		mine(e.B)
		mine(e.T)
		mine(e.F)
	}
	for _, c := range cs {
		if c.HasVar(v) {
			mine(c)
		}
	}
	add(0)
	add(1)
	add(dom.lo)
	add(dom.hi)
	if dom.width() > 1 {
		add(dom.lo + dom.width()/2)
	}
	// Small domains are enumerated exhaustively, which keeps the search
	// complete once propagation has narrowed a variable down.
	if dom.width() < enumWidth {
		for x := dom.lo; x <= dom.hi; x++ {
			set[x] = true
		}
	}
	out := make([]int64, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Model renders a model deterministically (for logging and trace files).
func Model(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, m[k])
	}
	return s
}

// --- Box: exported interval-domain abstraction ------------------------------

// Box over-approximates a path-constraint set with per-variable intervals.
// The symbolic VM keeps one per execution state and consults it before
// paying for a full solver query: when every point of the box makes a
// branch condition true (or false), the condition is implied (or refuted)
// by the path constraints, and no Check is needed. Ambiguous answers fall
// back to the solver, so the box is a pure accelerator — it never changes
// a decision.
type Box struct {
	d map[string]interval
}

// NewBox returns an unconstrained box.
func NewBox() *Box { return &Box{d: map[string]interval{}} }

// Clone copies the box (used on state forks).
func (b *Box) Clone() *Box {
	n := &Box{d: make(map[string]interval, len(b.d))}
	for k, v := range b.d {
		n.d[k] = v
	}
	return n
}

// Assume tightens the box with a constraint that now holds on the path.
// Constraints outside the linear fragment are ignored (the box just stays
// coarser).
func (b *Box) Assume(c *expr.Expr) {
	st := &searchState{domains: b.d}
	var walk func(e *expr.Expr)
	walk = func(e *expr.Expr) {
		if e.Op == expr.OpLAnd {
			walk(e.A)
			walk(e.B)
			return
		}
		st.tighten(expr.Truth(e))
	}
	walk(c)
}

// Truth evaluates a condition against the box: definite reports whether
// the box alone decides it, and value is the decided truth value.
func (b *Box) Truth(c *expr.Expr) (value, definite bool) {
	st := &searchState{domains: b.d}
	switch truthiness(st.evalInterval(expr.Truth(c))) {
	case 1:
		return true, true
	case 0:
		return false, true
	default:
		return false, false
	}
}

// Range returns the current interval known for a variable.
func (b *Box) Range(name string) (lo, hi int64) {
	st := &searchState{domains: b.d}
	iv := st.dom(name)
	return iv.lo, iv.hi
}

// EvalRange returns the interval the box implies for an arbitrary term.
func (b *Box) EvalRange(e *expr.Expr) (lo, hi int64) {
	st := &searchState{domains: b.d}
	iv := st.evalInterval(e)
	return iv.lo, iv.hi
}
