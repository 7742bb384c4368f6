package expr

import (
	"fmt"
	"math/rand"
	"testing"
)

// termSpec is a recipe for building a term — a pure description, so the
// same spec can be rebuilt in any order, before or after its nodes are
// collected, and must always land on the same structural key.
type termSpec struct {
	build func() *Expr
	label string
}

// specCorpus returns a deterministic corpus of structurally distinct term
// recipes covering every operator class: leaves, unary, binary,
// comparisons, logical connectives, and ite — plus nesting.
func specCorpus() []termSpec {
	var specs []termSpec
	add := func(label string, build func() *Expr) {
		specs = append(specs, termSpec{build: build, label: label})
	}
	add("const-7", func() *Expr { return Const(7) })
	add("const-big", func() *Expr { return Const(1 << 40) })
	add("const-neg", func() *Expr { return Const(-99991) })
	add("var-x", func() *Expr { return Var("x") })
	add("var-y", func() *Expr { return Var("y") })
	add("var-long", func() *Expr { return Var("thread1.buf[12].len") })
	for _, op := range []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr} {
		op := op
		add("bin-"+op.String(), func() *Expr { return Binary(op, Var("x"), Var("y")) })
		add("bin-rev-"+op.String(), func() *Expr { return Binary(op, Var("y"), Var("x")) })
	}
	for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		op := op
		add("cmp-"+op.String(), func() *Expr { return Binary(op, Var("n"), Const(3)) })
	}
	for _, op := range []Op{OpNeg, OpNot, OpBNot} {
		op := op
		add("un-"+op.String(), func() *Expr { return Unary(op, Var("z")) })
	}
	add("land", func() *Expr {
		return Binary(OpLAnd, Binary(OpLt, Var("i"), Const(10)), Binary(OpGe, Var("j"), Const(0)))
	})
	add("lor", func() *Expr {
		return Binary(OpLOr, Binary(OpEq, Var("a"), Const(0)), Binary(OpNe, Var("b"), Const(0)))
	})
	add("ite", func() *Expr {
		return Ite(Binary(OpGt, Var("c"), Const(0)), Var("t"), Var("f"))
	})
	add("ite-swapped", func() *Expr {
		return Ite(Binary(OpGt, Var("c"), Const(0)), Var("f"), Var("t"))
	})
	add("deep", func() *Expr {
		e := Var("seed")
		for i := 0; i < 16; i++ {
			e = Binary(OpAdd, Binary(OpMul, e, Const(31)), Var(fmt.Sprintf("w%d", i)))
		}
		return e
	})
	return specs
}

// TestStructKeyCanonicality is the satellite property test: the same term
// built under independent interner populations — a different (shuffled)
// build order, with unrelated junk interleaved, after a forced collection
// that reclaims every node and so re-mints it — must land on the same
// structural key, while every structurally distinct term in the corpus
// must get a distinct key. This is what "two independently built
// interners" means in-process: the interner is global, so a full
// collection plus a different construction order is the strongest
// available perturbation (intern IDs provably differ across it; keys must
// not).
func TestStructKeyCanonicality(t *testing.T) {
	specs := specCorpus()

	// First build: corpus order, record keys and IDs.
	firstKey := make([]StructKey, len(specs))
	firstID := make([]uint64, len(specs))
	for i, s := range specs {
		e := s.build()
		firstKey[i] = e.StructuralKey()
		firstID[i] = e.ID()
		if firstKey[i].IsZero() {
			t.Fatalf("%s: zero structural key", s.label)
		}
	}

	// Distinctness: all corpus terms are structurally distinct, so all
	// keys must differ pairwise.
	seen := map[StructKey]string{}
	for i, s := range specs {
		if prev, dup := seen[firstKey[i]]; dup {
			t.Fatalf("structural key collision: %s and %s both hash to %016x%016x",
				prev, s.label, firstKey[i].Hi, firstKey[i].Lo)
		}
		seen[firstKey[i]] = s.label
	}

	// Nothing holds the corpus nodes any more: a forced collection reclaims
	// every one outside the constant cache, so rebuilding re-interns fresh
	// nodes with fresh IDs.
	TryReclaim()

	// Second build: shuffled order, junk terms interleaved to perturb
	// intern-table layout.
	rng := rand.New(rand.NewSource(42))
	order := rng.Perm(len(specs))
	idChanged := false
	for n, i := range order {
		_ = Binary(OpAdd, Var(fmt.Sprintf("junk%d", n)), Const(int64(100000+n)))
		e := specs[i].build()
		if got := e.StructuralKey(); got != firstKey[i] {
			t.Errorf("%s: key changed across collection+reshuffle: %016x%016x -> %016x%016x",
				specs[i].label, firstKey[i].Hi, firstKey[i].Lo, got.Hi, got.Lo)
		}
		if e.ID() != firstID[i] {
			idChanged = true
		}
	}
	// Sanity-check the perturbation actually did something: at least one
	// intern ID must have been re-minted (IDs are never reused), otherwise
	// the collection did not exercise what it claims to.
	if !idChanged {
		t.Fatal("collection re-minted no intern IDs; perturbation is vacuous")
	}
}

// TestStructKeySensitivity checks that small structural perturbations —
// operator, constant, variable name, child order, branch roles — all
// produce distinct keys.
func TestStructKeySensitivity(t *testing.T) {
	base := Binary(OpLt, Var("x"), Const(10))
	perturbed := []*Expr{
		Binary(OpLe, Var("x"), Const(10)),  // operator
		Binary(OpLt, Var("x"), Const(11)),  // constant
		Binary(OpLt, Var("x1"), Const(10)), // variable name
		Binary(OpGt, Const(10), Var("x")),  // NB: normalizes to x < 10 — same term!
	}
	// The last one is the canonicalization identity: Binary normalizes
	// const-on-left comparisons, so it must be pointer-equal to base.
	if perturbed[3] != base {
		t.Fatalf("expected 10 > x to normalize to x < 10")
	}
	if perturbed[3].StructuralKey() != base.StructuralKey() {
		t.Fatalf("normalized term has different key from its canonical form")
	}
	for _, p := range perturbed[:3] {
		if p.StructuralKey() == base.StructuralKey() {
			t.Errorf("perturbed term %v collides with %v", p, base)
		}
	}

	// Position sensitivity: x-y vs y-x, and ite branch swap.
	if Binary(OpSub, Var("x"), Var("y")).StructuralKey() == Binary(OpSub, Var("y"), Var("x")).StructuralKey() {
		t.Error("x-y and y-x share a structural key")
	}
	c := Binary(OpNe, Var("c"), Const(0))
	if Ite(c, Var("p"), Var("q")).StructuralKey() == Ite(c, Var("q"), Var("p")).StructuralKey() {
		t.Error("ite branch swap does not change the structural key")
	}
}

// TestStructKeyLargeCorpusDistinct interns a few thousand distinct terms
// and checks for any 128-bit collision — a smoke test of mixing quality,
// not a proof.
func TestStructKeyLargeCorpusDistinct(t *testing.T) {
	seen := make(map[StructKey]*Expr, 1<<14)
	check := func(e *Expr) {
		if prev, ok := seen[e.StructuralKey()]; ok && prev != e {
			t.Fatalf("collision: %v and %v", prev, e)
		}
		seen[e.StructuralKey()] = e
	}
	for i := 0; i < 4096; i++ {
		check(Const(int64(i) + 2000))
		check(Var(fmt.Sprintf("v%d", i)))
		check(Binary(OpAdd, Var("a"), Const(int64(i)+2000)))
		check(Binary(OpXor, Var(fmt.Sprintf("v%d", i)), Var("a")))
	}
}

// TestKeyHasherStreams checks that the incremental hasher distinguishes
// boundary-ambiguous inputs (a caller hashing a sequence of records
// depends on this).
func TestKeyHasherStreams(t *testing.T) {
	sum := func(f func(h *keyHasher)) StructKey {
		h := newKeyHasher()
		f(&h)
		return h.sum()
	}
	a := sum(func(h *keyHasher) { h.str("ab"); h.str("c") })
	b := sum(func(h *keyHasher) { h.str("a"); h.str("bc") })
	c := sum(func(h *keyHasher) { h.str("abc") })
	if a == b || a == c || b == c {
		t.Fatalf("string boundary ambiguity: %v %v %v", a, b, c)
	}
	w1 := sum(func(h *keyHasher) { h.word(1); h.word(2) })
	w2 := sum(func(h *keyHasher) { h.word(2); h.word(1) })
	if w1 == w2 {
		t.Fatal("word order insensitive")
	}
	// Determinism across hasher instances.
	if a != sum(func(h *keyHasher) { h.str("ab"); h.str("c") }) {
		t.Fatal("hasher is not deterministic")
	}
}
