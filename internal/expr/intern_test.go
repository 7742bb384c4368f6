package expr

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Property: interning makes structural equality and pointer identity the
// same relation. Two independently built random terms are Equal iff they
// are the same pointer, and rebuilding any term yields the same pointer.
func TestInternPointerEquality(t *testing.T) {
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a := randomTerm(r1, 5)
		b := randomTerm(r2, 5)
		if a != b {
			t.Fatalf("iter %d: identical construction produced distinct pointers: %v vs %v", i, a, b)
		}
		if !a.Equal(b) {
			t.Fatalf("iter %d: pointer-equal terms not Equal", i)
		}
	}
	// Distinct structures must stay distinguishable.
	r3 := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		a := randomTerm(r3, 5)
		b := randomTerm(r3, 5)
		if (a == b) != a.Equal(b) {
			t.Fatalf("iter %d: Equal and pointer identity disagree for %v vs %v", i, a, b)
		}
	}
}

// Property: substituting through a DAG with O(n) distinct nodes but 2^n
// paths allocates O(distinct nodes), not O(paths). The pre-interning
// implementation allocated ~24,500 objects for depth 12; the memoized one
// stays under a small multiple of the node count.
func TestSubstituteSharedDAGAllocations(t *testing.T) {
	const depth = 12
	e := sharedDAG(depth)
	four := Const(4)
	e.Substitute("x", four) // warm the intern table with the result nodes
	allocs := testing.AllocsPerRun(10, func() {
		e.Substitute("x", four)
	})
	// ~4 distinct nodes per level plus the memo map: well under 200.
	if allocs > 200 {
		t.Fatalf("Substitute on shared DAG allocated %.0f objects; want O(distinct nodes)", allocs)
	}
}

// A Subst's memo spans Apply calls, so constraint sets sharing subtrees
// are rewritten consistently: the shared subtree maps to one result node.
func TestSubstMemoSharedAcrossApplies(t *testing.T) {
	shared := Binary(OpMul, Var("x"), Var("y"))
	c1 := Binary(OpGt, shared, Const(10))
	c2 := Binary(OpLt, shared, Const(90))
	sub := NewSubst("x", Const(3))
	r1 := sub.Apply(c1)
	r2 := sub.Apply(c2)
	if r1.A != r2.A {
		t.Fatalf("shared subtree rewritten to distinct nodes: %v vs %v", r1.A, r2.A)
	}
	want := Binary(OpMul, Const(3), Var("y"))
	if r1.A != want {
		t.Fatalf("substituted subtree = %v, want %v", r1.A, want)
	}
}

// Substituting a variable that does not occur is the identity, pointerwise.
func TestSubstituteMissShortCircuits(t *testing.T) {
	e := Binary(OpAdd, Var("x"), Const(1))
	if got := e.Substitute("zebra-not-present", Const(9)); got != e {
		t.Fatalf("substitution of absent var rebuilt the term: %v", got)
	}
}

func TestHasVarAndVars(t *testing.T) {
	e := Binary(OpAdd, Var("b"), Binary(OpMul, Var("a"), Var("b")))
	if !e.HasVar("a") || !e.HasVar("b") || e.HasVar("c") {
		t.Fatalf("HasVar wrong on %v", e)
	}
	if e.NumVars() != 2 {
		t.Fatalf("NumVars = %d, want 2", e.NumVars())
	}
	if v := e.Vars(); len(v) != 2 || v[0] != "a" || v[1] != "b" {
		t.Fatalf("Vars = %v", v)
	}
	// A node whose set equals a child's shares the child's slice.
	if v, w := e.Vars(), e.B.Vars(); &v[0] != &w[0] {
		t.Fatal("a node does not share its child's equal variable set")
	}
	if len(Const(1).Vars()) != 0 {
		t.Fatal("constant has free variables")
	}
}

// Race test: hammer the constructors from many goroutines building the
// same and different terms; all goroutines must agree on the canonical
// pointers. Run with -race in CI.
func TestConcurrentConstructors(t *testing.T) {
	const goroutines = 8
	const terms = 400
	results := make([][]*Expr, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(42)) // same seed: same term sequence
			out := make([]*Expr, terms)
			for i := 0; i < terms; i++ {
				e := randomTerm(r, 5)
				// Mix in goroutine-specific terms to force real insertion
				// races alongside the lookups.
				_ = Binary(OpAdd, e, Var(fmt.Sprintf("g%d", g)))
				_ = e.Vars()
				_ = e.Substitute("x", Const(int64(i%7)))
				out[i] = e
			}
			results[g] = out
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d term %d interned to a different pointer", g, i)
			}
		}
	}
}

// TestInternedNodesGrows: interning fresh terms grows the footprint by
// exactly their nodes and the new variable's name.
func TestInternedNodesGrows(t *testing.T) {
	before := settleToFloor(t)
	e := Binary(OpAdd, Var("intern-count-probe"), Const(987654321))
	after := InternerStats()
	if after.Terms != before.Terms+3 || after.InternMisses != before.InternMisses+3 {
		t.Errorf("interning three fresh terms moved the stats from %+v to %+v", before, after)
	}
	if want := before.Bytes + 3*exprNodeSize + int64(len("intern-count-probe")); after.Bytes != want {
		t.Errorf("bytes = %d, want %d", after.Bytes, want)
	}
	runtime.KeepAlive(e)
}
