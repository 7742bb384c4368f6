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
// The solver is sound: Sat answers always come with a model that is
// verified by concrete evaluation before being returned, and Unsat is only
// reported when the search space is exhausted. When the node budget runs
// out it answers Unknown, which the symbolic-execution engine treats as
// "abandon this path" (the paper makes the same call for constraints such
// as cryptographic hash inversions, §8).
package solver

import (
	"fmt"
	"math"
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

// Solver holds tunables and the memoized query cache. A Solver is not safe
// for concurrent use; create one per worker.
type Solver struct {
	// MaxNodes bounds the number of search nodes explored per query before
	// answering Unknown.
	MaxNodes int

	// cache memoizes query results by the canonical structural key of the
	// constraint set (expr.StructKey): the sorted slice of 128-bit
	// structural fingerprints of the conjuncts. Structural keys — unlike
	// intern IDs — survive the collection and re-interning of the terms,
	// so a warm pooled solver keeps its facts across requests; a false
	// hit requires a full 128-bit collision between distinct terms, which
	// is negligible against every other failure mode.
	// Entries are stored both for full queries and for each independent
	// component, so extending a path condition by one conjunct re-solves
	// only the component the new conjunct touches.
	cache map[uint64][]cacheEntry

	// Shared, when non-nil, is the cross-solver fact layer of the current
	// run (see SharedCache): consulted after the private cache misses on a
	// component, published into after a component is decided. The search
	// layer attaches it for the run's duration and detaches it before the
	// solver returns to a pool.
	Shared *SharedCache

	// Persist, when non-nil, is the cross-run persistent fact tier:
	// consulted after both the private cache and Shared miss on a
	// component, published into after a fresh definite verdict. Sat models
	// served from it are re-verified by concrete evaluation before being
	// trusted (see checkComponent), so a corrupt or stale entry degrades
	// to a miss instead of poisoning the run.
	Persist PersistentCache

	// Stats
	Queries   int
	CacheHits int
	// SharedHits counts component answers this solver took from the
	// attached SharedCache (the per-worker reuse attribution; the cache's
	// own counters aggregate across all attached solvers).
	SharedHits int
	// PersistentHits counts component answers served from the attached
	// persistent tier (after surviving verify-on-load).
	PersistentHits int
	// VerifyRejects counts persistent-tier Sat entries whose model failed
	// re-verification and were discarded. A nonzero count means the store
	// holds entries from a different term semantics (or corruption) —
	// harmless for correctness, fatal for its hit rate.
	VerifyRejects int
	// WallNanos accumulates wall time spent inside Check. Search reads its
	// delta around every query batch to attribute synthesis wall time to the
	// solver versus the search loop.
	WallNanos int64
}

type cacheEntry struct {
	keys  []expr.StructKey // sorted structural keys of the constraint set
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
	start := time.Now()
	defer func() {
		ns := time.Since(start).Nanoseconds()
		s.WallNanos += ns
		solverWall.Add(ns)
	}()
	// Cache keys are structural (expr.StructKey), not intern identities,
	// so entries remain valid — and keep hitting — when collected terms
	// are re-interned. Models hold plain name→value maps and keep no term
	// alive.
	s.Queries++
	solverQueries.Inc()
	key, keys := structKey(constraints)
	if ent, ok := s.cacheGet(key, keys); ok {
		s.CacheHits++
		queryHits.Inc()
		return ent.res, ent.model
	}
	queryMisses.Inc()

	cs := flatten(constraints)
	// Trivial scan first.
	for _, c := range cs {
		if v, ok := c.IsConst(); ok && v == 0 {
			s.cachePut(key, keys, Unsat, nil)
			return Unsat, nil
		}
	}
	cs = dropTrue(cs)
	if len(cs) == 0 {
		model := map[string]int64{}
		s.cachePut(key, keys, Sat, model)
		return Sat, model
	}

	// Independence partitioning: conjuncts over disjoint variable sets
	// cannot influence each other, so each connected component is decided
	// (and cached) on its own. Path-condition queries grow by one conjunct
	// at a time, so all but the touched component hit the cache.
	res, model := Sat, map[string]int64{}
	for _, comp := range partition(cs) {
		solverComponentSize.Observe(int64(len(comp)))
		r, m := s.checkComponent(comp)
		if r == Unsat {
			res, model = Unsat, nil
			break
		}
		if r == Unknown {
			res, model = Unknown, nil
			continue // keep scanning: a later Unsat component dominates
		}
		if res == Sat {
			for k, v := range m {
				model[k] = v
			}
		}
	}
	// No full-query re-verification: every Sat component model was verified
	// by concrete evaluation before it was cached (checkComponent), and
	// components have disjoint variable sets, so the merged model satisfies
	// the conjunction by construction.
	s.cachePut(key, keys, res, model)
	return res, model
}

// checkComponent decides one variable-connected constraint group, with its
// own cache entry keyed by the group's canonical structural key. The tier
// order is private → shared (this run's workers) → persistent (cross-run,
// verify-on-load) → solve.
func (s *Solver) checkComponent(cs []*expr.Expr) (Result, map[string]int64) {
	key, keys := structKey(cs)
	if ent, ok := s.cacheGet(key, keys); ok {
		s.CacheHits++
		componentHits.Inc()
		return ent.res, ent.model
	}
	componentMisses.Inc()
	if s.Shared != nil {
		if ent, ok := s.Shared.lookup(key, keys); ok {
			// A sibling solver already decided this component. Adopt the
			// verdict into the private cache so repeats stay lock-free.
			s.SharedHits++
			s.cachePut(key, keys, ent.res, ent.model)
			return ent.res, ent.model
		}
	}
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
				if s.Shared != nil {
					s.Shared.publish(key, keys, res, model)
				}
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
	res, model := st.search(cs)
	if res == Sat && !modelSatisfies(cs, model) {
		// Verify before caching: a bogus model must not enter the cache as
		// Sat (a single-conjunct component shares its cache key with the
		// full query, so an unverified entry would shadow the fail-closed
		// answer on repeat queries).
		res, model = Unknown, nil
	}
	s.cachePut(key, keys, res, model)
	if s.Shared != nil {
		// Publish only after verification: the shared layer carries the
		// same "Sat entries hold verified models" invariant as the private
		// cache (publish drops Unknown itself).
		s.Shared.publish(key, keys, res, model)
	}
	if s.Persist != nil && res != Unknown {
		s.Persist.Publish(keys, res, model)
	}
	return res, model
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
// Variable-free conjuncts form their own singleton components.
func partition(cs []*expr.Expr) [][]*expr.Expr {
	if len(cs) <= 1 {
		return [][]*expr.Expr{cs}
	}
	// Union-find over conjunct indices, joined through variables.
	parent := make([]int, len(cs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := map[string]int{} // variable -> first conjunct mentioning it
	for i, c := range cs {
		for _, v := range c.Vars() {
			if j, ok := owner[v]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[v] = i
			}
		}
	}
	groups := map[int]int{} // root -> output index
	var out [][]*expr.Expr
	for i, c := range cs {
		r := find(i)
		gi, ok := groups[r]
		if !ok {
			gi = len(out)
			groups[r] = gi
			out = append(out, nil)
		}
		out[gi] = append(out[gi], c)
	}
	return out
}

// MayBeTrue reports whether cond can be true under the path constraints.
func (s *Solver) MayBeTrue(path []*expr.Expr, cond *expr.Expr) (bool, Result) {
	cs := make([]*expr.Expr, 0, len(path)+1)
	cs = append(cs, path...)
	cs = append(cs, expr.Truth(cond))
	res, _ := s.Check(cs)
	return res == Sat, res
}

// MustBeTrue reports whether cond is implied by the path constraints
// (i.e. path ∧ ¬cond is unsatisfiable).
func (s *Solver) MustBeTrue(path []*expr.Expr, cond *expr.Expr) (bool, Result) {
	cs := make([]*expr.Expr, 0, len(path)+1)
	cs = append(cs, path...)
	cs = append(cs, expr.Not(cond))
	res, _ := s.Check(cs)
	return res == Unsat, res
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

// structKey canonicalizes a constraint set to its sorted, deduplicated
// structural-key slice plus a 64-bit bucket hash of it. The slice is the
// exact cache key (compared in full by matchEntry); the bucket hash only
// picks the chain. Because structural keys are stable across
// collections, restarts, and processes, the same constraint set always
// canonicalizes to the same key everywhere — the property the shared and
// persistent tiers are built on.
func structKey(cs []*expr.Expr) (uint64, []expr.StructKey) {
	keys := make([]expr.StructKey, len(cs))
	for i, c := range cs {
		keys[i] = c.StructuralKey()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	// Deduplicate: a repeated conjunct is the same constraint.
	w := 0
	for i, k := range keys {
		if i == 0 || k != keys[w-1] {
			keys[w] = k
			w++
		}
	}
	keys = keys[:w]
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

func (s *Solver) cachePut(key uint64, keys []expr.StructKey, res Result, model map[string]int64) {
	// Upsert: a full query and its single component share one key slice;
	// keeping one entry per key avoids duplicates and shadowing.
	chain := s.cache[key]
	if i := matchEntry(chain, keys); i >= 0 {
		chain[i] = cacheEntry{keys: keys, res: res, model: model}
		return
	}
	s.cache[key] = append(chain, cacheEntry{keys: keys, res: res, model: model})
}

// flatten splits top-level logical-ands into separate conjuncts and drops
// duplicate conjuncts (identity comparison — terms are interned).
func flatten(cs []*expr.Expr) []*expr.Expr {
	out := make([]*expr.Expr, 0, len(cs))
	seen := make(map[*expr.Expr]bool, len(cs))
	var walk func(e *expr.Expr)
	walk = func(e *expr.Expr) {
		if e.Op == expr.OpLAnd {
			walk(e.A)
			walk(e.B)
			return
		}
		t := expr.Truth(e)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, c := range cs {
		walk(c)
	}
	return out
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
		// All constraints discharged; pick any in-domain value per var.
		model := map[string]int64{}
		for v, d := range st.domains {
			val := int64(0)
			if !d.contains(0) {
				val = d.lo
			}
			model[v] = val
		}
		return Sat, model
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
	sawUnknown := false
	for _, val := range cands {
		mark := len(st.trail)
		st.setDom(v, interval{val, val})
		ncs := substituteAll(cs, v, val)
		r, m := st.search(ncs)
		st.undo(mark)
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

func unsatOrUnknown(sawUnknown bool) Result {
	if sawUnknown {
		return Unknown
	}
	return Unsat
}

func substituteAll(cs []*expr.Expr, v string, val int64) []*expr.Expr {
	out := make([]*expr.Expr, 0, len(cs))
	// One Subst for the whole set: the memo is shared, so subtrees common
	// to several constraints are rewritten once. Constraints whose cached
	// var-set misses v are returned as-is by Apply (no walk, no copy).
	sub := expr.NewSubst(v, expr.Const(val))
	for _, e := range cs {
		out = append(out, sub.Apply(e))
	}
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
					cs = substituteAll(cs, v, d.lo)
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
	if dom.width() < 64 {
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
