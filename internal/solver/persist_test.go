package solver

import (
	"fmt"
	"sync"
	"testing"

	"esd/internal/expr"
)

// rangeComp builds the i-th test component: lo+1 <= x_i <= lo+3 with
// x_i != lo+1, forcing a real interval/case-split solve (not the trivial
// scan) whose only models are lo+2 and lo+3.
func rangeComp(prefix string, i int) []*expr.Expr {
	x := expr.Var(fmt.Sprintf("%s-x%d", prefix, i))
	lo := int64(10 * i)
	return []*expr.Expr{
		expr.Binary(expr.OpGe, x, expr.Const(lo+1)),
		expr.Binary(expr.OpLe, x, expr.Const(lo+3)),
		expr.Binary(expr.OpNe, x, expr.Const(lo+1)),
	}
}

// mapPersist is an in-memory PersistentCache for tests.
type mapPersist struct {
	mu sync.Mutex
	m  map[uint64][]cacheEntry
}

func newMapPersist() *mapPersist { return &mapPersist{m: map[uint64][]cacheEntry{}} }

func bucketOf(keys []expr.StructKey) uint64 {
	h := uint64(14695981039346656037)
	for _, k := range keys {
		h ^= k.Hi
		h *= 1099511628211
		h ^= k.Lo
		h *= 1099511628211
	}
	return h
}

func (p *mapPersist) Lookup(keys []expr.StructKey) (Result, map[string]int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := matchEntry(p.m[bucketOf(keys)], keys); i >= 0 {
		ent := p.m[bucketOf(keys)][i]
		return ent.res, ent.model, true
	}
	return Unknown, nil, false
}

func (p *mapPersist) Publish(keys []expr.StructKey, res Result, model map[string]int64) {
	if res == Unknown {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := bucketOf(keys)
	if matchEntry(p.m[b], keys) < 0 {
		p.m[b] = append(p.m[b], cacheEntry{keys: keys, res: res, model: model})
	}
}

// TestPersistentTierHit: verdicts published by one solver are served to a
// fresh solver (fresh private cache) from the persistent
// tier, counted as PersistentHits, for both Sat and Unsat.
func TestPersistentTierHit(t *testing.T) {
	p := newMapPersist()
	cs := rangeComp("persist", 1)
	contra := []*expr.Expr{
		expr.Binary(expr.OpGt, expr.Var("persist-c"), expr.Const(5)),
		expr.Binary(expr.OpLt, expr.Var("persist-c"), expr.Const(5)),
	}

	a := New()
	a.Persist = p
	if res, _ := a.Check(cs); res != Sat {
		t.Fatalf("solver a: %v", res)
	}
	if res, _ := a.Check(contra); res != Unsat {
		t.Fatalf("contradiction via a: %v", res)
	}
	if a.PersistentHits != 0 {
		t.Errorf("publisher took %d persistent hits for its own facts", a.PersistentHits)
	}

	b := New()
	b.Persist = p
	res, model := b.Check(cs)
	if res != Sat {
		t.Fatalf("solver b: %v", res)
	}
	if b.PersistentHits == 0 {
		t.Error("solver b re-solved a component the persistent tier held")
	}
	for _, c := range cs {
		v, err := c.Eval(completeModel(model, c))
		if err != nil || v == 0 {
			t.Fatalf("served model %v does not satisfy %v (err=%v)", model, c, err)
		}
	}
	hits := b.PersistentHits
	if res, _ := b.Check(contra); res != Unsat {
		t.Fatalf("contradiction via b: %v", res)
	}
	if b.PersistentHits <= hits {
		t.Error("unsat verdict not served from the persistent tier")
	}
}

// TestPersistentTierVerifyReject: a poisoned Sat entry (bogus model) must
// not be served — the solver re-verifies by evaluation, counts a
// VerifyReject, falls through to a real solve, and still answers
// correctly.
func TestPersistentTierVerifyReject(t *testing.T) {
	p := newMapPersist()
	cs := rangeComp("poison", 1)
	_, keys := structKey(nil, New().flatten(cs))
	// Model 0 violates x >= 11: a corrupt store entry.
	p.Publish(keys, Sat, map[string]int64{"poison-x1": 0})

	s := New()
	s.Persist = p
	res, model := s.Check(cs)
	if res != Sat {
		t.Fatalf("check: %v, want sat (solved fresh after reject)", res)
	}
	if s.VerifyRejects == 0 {
		t.Fatal("poisoned entry served without a verify reject")
	}
	if s.PersistentHits != 0 {
		t.Errorf("poisoned entry counted as %d persistent hits", s.PersistentHits)
	}
	for _, c := range cs {
		v, err := c.Eval(completeModel(model, c))
		if err != nil || v == 0 {
			t.Fatalf("model %v does not satisfy %v (err=%v)", model, c, err)
		}
	}
}

// TestPersistentTierSurvivesEpoch: the persistent tier is the cross-run
// layer — a collection plus a full rebuild (the in-process proxy for a
// process restart) must still hit.
func TestPersistentTierSurvivesEpoch(t *testing.T) {
	p := newMapPersist()
	cs := rangeComp("persist-epoch", 1)
	a := New()
	a.Persist = p
	if res, _ := a.Check(cs); res != Sat {
		t.Fatal("warmup not sat")
	}
	cs, a = nil, nil
	expr.TryReclaim()
	cs = rangeComp("persist-epoch", 1)
	b := New()
	b.Persist = p
	if res, _ := b.Check(cs); res != Sat {
		t.Fatal("post-collection check not sat")
	}
	if b.PersistentHits == 0 {
		t.Error("persistent tier missed after collection + rebuild")
	}
}
