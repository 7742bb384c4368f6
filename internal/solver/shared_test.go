package solver

import (
	"fmt"
	"sync"
	"testing"

	"esd/internal/expr"
)

// sharedRange builds the i-th test component: lo+1 <= x_i <= lo+3 with
// x_i != lo+1, forcing a real interval/case-split solve (not the trivial
// scan) whose only models are lo+2 and lo+3.
func sharedRange(prefix string, i int) []*expr.Expr {
	x := expr.Var(fmt.Sprintf("%s-x%d", prefix, i))
	lo := int64(10 * i)
	return []*expr.Expr{
		expr.Binary(expr.OpGe, x, expr.Const(lo+1)),
		expr.Binary(expr.OpLe, x, expr.Const(lo+3)),
		expr.Binary(expr.OpNe, x, expr.Const(lo+1)),
	}
}

// TestSharedCacheCrossSolver: a verdict one solver pays for is free for a
// sibling attached to the same SharedCache — and the adopted Sat model
// still satisfies the constraints.
func TestSharedCacheCrossSolver(t *testing.T) {
	sc := NewSharedCache()
	cs := sharedRange("cross", 1)

	a := New()
	a.Shared = sc
	if res, _ := a.Check(cs); res != Sat {
		t.Fatalf("solver a: %v, want sat", res)
	}
	if st := sc.Stats(); st.Publishes == 0 || st.Entries == 0 {
		t.Fatalf("solver a published nothing: %+v", st)
	}
	if a.SharedHits != 0 {
		t.Errorf("first solver took %d shared hits for facts it created itself", a.SharedHits)
	}

	b := New()
	b.Shared = sc
	res, model := b.Check(cs)
	if res != Sat {
		t.Fatalf("solver b: %v, want sat", res)
	}
	if b.SharedHits == 0 {
		t.Error("solver b re-solved a component the shared cache already held")
	}
	for _, c := range cs {
		env := completeModel(model, c)
		v, err := c.Eval(env)
		if err != nil || v == 0 {
			t.Fatalf("adopted model %v does not satisfy %v (err=%v)", model, c, err)
		}
	}

	// Unsat verdicts share the same way.
	contra := []*expr.Expr{
		expr.Binary(expr.OpGt, expr.Var("cross-c"), expr.Const(5)),
		expr.Binary(expr.OpLt, expr.Var("cross-c"), expr.Const(5)),
	}
	if res, _ := a.Check(contra); res != Unsat {
		t.Fatalf("contradiction via a: %v", res)
	}
	hits := b.SharedHits
	if res, _ := b.Check(contra); res != Unsat {
		t.Fatalf("contradiction via b: %v", res)
	}
	if b.SharedHits <= hits {
		t.Error("unsat verdict was not shared")
	}
}

// TestSharedCacheRejectsUnknown: Unknown is a budget artifact of the
// publishing solver, not a property of the component — it must never be
// published as a fact.
func TestSharedCacheRejectsUnknown(t *testing.T) {
	sc := NewSharedCache()
	key, keys := structKey(sharedRange("unk", 1))
	sc.publish(key, keys, Unknown, nil)
	if st := sc.Stats(); st.Publishes != 0 || st.Entries != 0 {
		t.Fatalf("Unknown was published: %+v", st)
	}
	if _, ok := sc.lookup(key, keys); ok {
		t.Fatal("Unknown verdict retrievable from shared cache")
	}
}

// TestSharedCacheSurvivesEpoch: shared entries are keyed structurally and
// hold no term pointers, so collecting the terms must not cost them —
// terms rebuilt after a collection (fresh intern IDs, same structure)
// still hit.
func TestSharedCacheSurvivesEpoch(t *testing.T) {
	sc := NewSharedCache()
	cs := sharedRange("epoch-shared", 1)
	s := New()
	s.Shared = sc
	if res, _ := s.Check(cs); res != Sat {
		t.Fatal("warmup not sat")
	}
	if sc.Stats().Entries == 0 {
		t.Fatal("setup: nothing published")
	}
	cs, s = nil, nil
	expr.TryReclaim()
	// Rebuild the same components from scratch; structural keys are
	// unchanged, so the entries published before the collection answer.
	cs = sharedRange("epoch-shared", 1)
	key, keys := structKey(cs)
	ent, ok := sc.lookup(key, keys)
	if !ok {
		t.Fatal("structurally keyed entry lost across the collection")
	}
	if ent.res != Sat {
		t.Fatalf("post-collection verdict: %v, want sat", ent.res)
	}
	for _, c := range cs {
		v, err := c.Eval(completeModel(ent.model, c))
		if err != nil || v == 0 {
			t.Fatalf("post-collection model %v does not satisfy %v (err=%v)", ent.model, c, err)
		}
	}
}

// TestSharedCacheEvictionsCounted: publishes dropped at the per-shard cap
// are counted instead of silently vanishing.
func TestSharedCacheEvictionsCounted(t *testing.T) {
	sc := NewSharedCache()
	// Fill one shard to its cap by publishing synthetic entries that all
	// land in shard 0 (key ≡ 0 mod sharedShards), then overflow it.
	for i := 0; i <= maxSharedEntriesPerShard; i++ {
		k := expr.StructKey{Hi: uint64(i) + 1, Lo: uint64(i) * 7}
		bucket := uint64(i) * sharedShards // shard 0
		sc.publish(bucket, []expr.StructKey{k}, Unsat, nil)
	}
	st := sc.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions counted at the cap: %+v", st)
	}
	if st.Publishes != maxSharedEntriesPerShard {
		t.Fatalf("publishes %d, want %d (cap)", st.Publishes, maxSharedEntriesPerShard)
	}
}

// TestSharedCacheConcurrentStress hammers one SharedCache from many
// solvers solving overlapping component families — the -race exercise
// for concurrent publish/lookup. Every verdict must stay correct no
// matter who solved first.
func TestSharedCacheConcurrentStress(t *testing.T) {
	sc := NewSharedCache()
	const (
		goroutines = 8
		families   = 32
		rounds     = 4
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := New()
			s.Shared = sc
			for r := 0; r < rounds; r++ {
				// Offset the start so goroutines collide on different
				// families at different times.
				for i := 0; i < families; i++ {
					f := (i + g*5) % families
					cs := sharedRange("stress", f)
					res, model := s.Check(cs)
					if res != Sat {
						errs <- fmt.Errorf("goroutine %d family %d: %v, want sat", g, f, res)
						return
					}
					x := fmt.Sprintf("stress-x%d", f)
					if v := model[x]; v != int64(10*f+2) && v != int64(10*f+3) {
						errs <- fmt.Errorf("goroutine %d family %d: bad model %v", g, f, model)
						return
					}
					un := []*expr.Expr{
						expr.Binary(expr.OpGt, expr.Var(fmt.Sprintf("stress-u%d", f)), expr.Const(int64(f))),
						expr.Binary(expr.OpLt, expr.Var(fmt.Sprintf("stress-u%d", f)), expr.Const(int64(f))),
					}
					if res, _ := s.Check(un); res != Unsat {
						errs <- fmt.Errorf("goroutine %d family %d: %v, want unsat", g, f, res)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := sc.Stats()
	if st.Publishes == 0 || st.Hits == 0 {
		t.Errorf("stress produced no sharing: %+v", st)
	}
}
