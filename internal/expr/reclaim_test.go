package expr

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"
)

// The intern table holds its nodes weakly, and cleanups remove collected
// nodes' entries asynchronously, so every check of what a collection
// reclaimed polls with a deadline.

// eventually forces a collection and checks cond until it holds, failing
// the test if it does not within ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		TryReclaim()
		time.Sleep(time.Millisecond)
	}
}

// settleToFloor waits until every term the package's earlier tests built
// is collected and forgotten, leaving only the constant cache, and returns
// that footprint.
func settleToFloor(t *testing.T) Stats {
	t.Helper()
	eventually(t, "the footprint is back at the constant cache", func() bool {
		st := InternerStats()
		return st.Terms == len(constCache) && st.Bytes == int64(len(constCache))*exprNodeSize
	})
	return InternerStats()
}

// collectGarbageTerm drops a fresh term and waits until it is collected
// and its cleanup has removed its entry: evidence that a collection has
// run and the cleanups it queued are being processed.
func collectGarbageTerm(t *testing.T) {
	t.Helper()
	e := Binary(OpMul, Var("garbage-probe"), Const(internMisses.Load()+1_000_000))
	hash, wp := e.hash, weak.Make(e)
	e = nil
	eventually(t, "a dropped probe term is collected and forgotten", func() bool { return !entryPresent(hash, wp) })
}

// entryPresent reports whether the table still holds wp's entry.
func entryPresent(hash uint64, wp weak.Pointer[Expr]) bool {
	sh := &shards[hash%internShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, x := range sh.m[hash] {
		if x == wp {
			return true
		}
	}
	return false
}

// TestHeldTermSurvivesReclaim: a term that is referenced survives forced
// collections with its pointer and children intact.
func TestHeldTermSurvivesReclaim(t *testing.T) {
	build := func() *Expr {
		return Binary(OpAdd, Var("held-x"), Binary(OpMul, Var("held-y"), Const(77001)))
	}
	held := build()
	child := held.B
	collectGarbageTerm(t)
	got := build()
	if got != held || got.B != child {
		t.Fatalf("held term lost its identity across collections: %p -> %p", held, got)
	}
}

// TestReclaimSweepsDeadTerms: a dropped term is collected; rebuilding it
// interns a new node with the same structural key, and two rebuilds are
// pointer-equal.
func TestReclaimSweepsDeadTerms(t *testing.T) {
	build := func() *Expr { return Binary(OpXor, Var("doomed-x"), Const(200001)) }
	e := build()
	key := e.StructuralKey()
	wp := weak.Make(e)
	e = nil
	eventually(t, "the dropped term is collected", func() bool { return wp.Value() == nil })

	a, b := build(), build()
	if a != b {
		t.Fatal("two rebuilds of a collected term interned to different pointers")
	}
	if a.StructuralKey() != key {
		t.Error("structural key changed across a collection")
	}
}

// TestCleanupSparesNewerNode: the cleanup of a collected node that runs
// after a node of the same shape was interned again removes only its own
// entry, never the newer live node's.
func TestCleanupSparesNewerNode(t *testing.T) {
	// Park the cleanup goroutine, so the doomed node's cleanup stays
	// pending while its shape is interned again.
	started, release := make(chan struct{}), make(chan struct{})
	blocker := new([32]byte) // not a tiny allocation, so its cleanup runs
	runtime.AddCleanup(blocker, func(int) {
		close(started)
		<-release
	}, 0)
	blocker = nil
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	eventually(t, "the blocking cleanup runs", func() bool {
		select {
		case <-started:
			return true
		default:
			return false
		}
	})

	build := func() *Expr { return Binary(OpSub, Var("respawn-x"), Const(313131)) }
	old := build()
	hash := old.hash
	oldWP := weak.Make(old)
	old = nil
	eventually(t, "the old node is collected", func() bool { return oldWP.Value() == nil })
	if !entryPresent(hash, oldWP) {
		t.Skip("the runtime ran the old node's cleanup alongside the blocked one; cannot stage a pending cleanup")
	}

	fresh := build()
	close(release)
	released = true
	eventually(t, "the old node's cleanup runs", func() bool { return !entryPresent(hash, oldWP) })
	if !entryPresent(hash, weak.Make(fresh)) {
		t.Fatal("the old node's cleanup evicted the newer live node")
	}
	if got := build(); got != fresh {
		t.Fatal("after the old cleanup, rebuilding interned a second node")
	}
}

// TestSubstAcrossReclaim: a Subst keeps the terms in its memo alive, so
// after collections its results are still the canonical nodes.
func TestSubstAcrossReclaim(t *testing.T) {
	build := func() *Expr {
		return Binary(OpAdd, Binary(OpMul, Var("subst-gc-v"), Var("subst-gc-w")), Const(44771))
	}
	sub := NewSubst("subst-gc-v", Const(9))
	first := sub.Apply(build())
	collectGarbageTerm(t)
	want := Binary(OpAdd, Binary(OpMul, Const(9), Var("subst-gc-w")), Const(44771))
	if got := sub.Apply(build()); got != want || got != first {
		t.Fatalf("Apply after collections = %v (%p), want %v (%p)", got, got, want, first)
	}
}

// TestConcurrentBuildersAndReclaim races builders against forced
// collections: in every round all goroutines build the same random
// terms, then compare them while still holding them, so two structurally
// equal live terms at different pointers fail the test. Between rounds
// the terms are dropped, so later rounds re-intern shapes whose collected
// nodes' cleanups may still be pending. Run under -race in CI.
func TestConcurrentBuildersAndReclaim(t *testing.T) {
	const goroutines = 4
	const rounds = 30
	const terms = 64
	stop := make(chan struct{})
	var reclaimer sync.WaitGroup
	reclaimer.Add(1)
	go func() {
		defer reclaimer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				TryReclaim()
			}
		}
	}()
	defer func() {
		close(stop)
		reclaimer.Wait()
	}()

	for round := 0; round < rounds; round++ {
		results := make([][]*Expr, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round)))
				v := fmt.Sprintf("race-g%d", g)
				out := make([]*Expr, terms)
				for i := range out {
					e := randomTerm(r, 5)
					// Goroutine-private terms force insertions alongside
					// the shared lookups.
					own := Binary(OpAdd, Var(v), Const(int64(400000+i)))
					if own.Substitute(v, Const(1)).Op != OpConst {
						t.Errorf("substitution of %v did not fold", own)
					}
					out[i] = e
				}
				results[g] = out
			}()
		}
		wg.Wait()
		for g := 1; g < goroutines; g++ {
			for i := range results[g] {
				if results[g][i] != results[0][i] {
					t.Fatalf("round %d: goroutine %d term %d interned to a different pointer than goroutine 0's", round, g, i)
				}
			}
		}
	}
}

// TestReclaimToConstantFloor: once nothing references the terms a run
// built, the footprint returns to the constant cache, names included.
func TestReclaimToConstantFloor(t *testing.T) {
	floor := settleToFloor(t)
	held := make([]*Expr, 0, 500)
	for i := 0; i < 500; i++ {
		held = append(held, Binary(OpXor, Var(fmt.Sprintf("floor-v%d", i)), Const(int64(300000+i))))
	}
	if st := InternerStats(); st.Terms != floor.Terms+3*len(held) || st.Bytes <= floor.Bytes {
		t.Fatalf("building %d terms moved the footprint from %+v to %+v", 3*len(held), floor, st)
	}
	runtime.KeepAlive(held)
	held = nil
	settleToFloor(t)
}
