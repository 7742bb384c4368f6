package expr

// This file implements the canonical structural fingerprint of a term: a
// 128-bit key that is a pure function of the term's structure (operator,
// constant value, variable *names*, and the keys of its children). Unlike
// the intern ID — which is process-unique and minted fresh whenever a
// collected term is rebuilt — a StructKey is stable across intern order,
// collections, process restarts, and machines, so it can key caches that
// outlive the terms: the solver's component caches, the request-scoped
// SharedCache, and the persistent cross-run tier (internal/pcache). It is
// the term-level analogue of mir.Program.Fingerprint.
//
// The key is computed once at intern time, exactly like the cached
// var-sets: children are already interned, so a node's key derives from
// O(1) work over its children's cached keys.
//
// Width: 128 bits, not 64. Identity-keyed caches were collision-free by
// construction; structural keys are only probabilistically so, and an
// Unsat verdict served from the persistent tier cannot be re-verified by
// evaluation the way a Sat model can. At 128 bits, even a corpus of 2^32
// distinct terms has a collision probability around 2^-64 — negligible
// against every other failure mode of the system.
//
// StructKeyVersion must be bumped whenever the mixing function or the
// serialization of parts changes; the persistent store embeds it in its
// schema string so stale on-disk keys are discarded rather than mismatched.

import "cmp"

// StructKeyVersion identifies the structural-hash algorithm. Persistent
// stores of structural keys must record it and discard entries written
// under a different version.
const StructKeyVersion = 1

// StructKey is a 128-bit canonical structural fingerprint. It is
// comparable (usable as a map key) and has a total order (Compare) so key
// slices can be sorted into canonical form.
type StructKey struct {
	Hi, Lo uint64
}

// Compare orders keys lexicographically by (Hi, Lo), returning -1, 0 or
// +1 (the shape slices.SortFunc takes).
func (k StructKey) Compare(o StructKey) int {
	if c := cmp.Compare(k.Hi, o.Hi); c != 0 {
		return c
	}
	return cmp.Compare(k.Lo, o.Lo)
}

// IsZero reports whether k is the zero key. Interned terms never have a
// zero key (the hasher seeds are non-zero and mixed), so zero can serve as
// an "absent" sentinel.
func (k StructKey) IsZero() bool { return k.Hi == 0 && k.Lo == 0 }

// StructuralKey returns the term's canonical 128-bit structural
// fingerprint, computed at construction: a field read, like Hash. Two
// terms have equal keys iff they are structurally equal (up to the
// 128-bit collision probability) — regardless of collections, build
// order, or process.
func (e *Expr) StructuralKey() StructKey { return e.skey }

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on 64-bit
// words. Both lanes of the hasher run it over decorrelated inputs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyHasher builds a 128-bit structural fingerprint incrementally: the
// canonical hasher behind StructKey. The zero value is NOT ready to use;
// call newKeyHasher.
type keyHasher struct {
	hi, lo uint64
}

// newKeyHasher returns a hasher seeded with fixed non-zero constants, so
// equal input sequences produce equal sums in any process.
func newKeyHasher() keyHasher {
	return keyHasher{hi: 0x6a09e667f3bcc908, lo: 0xbb67ae8584caa73b}
}

// word mixes one 64-bit word into both lanes. The lanes absorb different
// bijections of v (the hi lane pre-multiplies by an odd constant) and are
// cross-coupled, so a collision requires both 64-bit lanes to collide on
// correlated state — effectively a 128-bit event.
func (h *keyHasher) word(v uint64) {
	h.lo = mix64(h.lo ^ v)
	h.hi = mix64(h.hi ^ (v*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d))
	h.hi += h.lo
}

// str mixes a string: its length, then its bytes packed big-endian into
// 64-bit words. The length prefix disambiguates concatenations across
// consecutive str calls.
func (h *keyHasher) str(s string) {
	h.word(uint64(len(s)))
	var w uint64
	n := 0
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		n++
		if n == 8 {
			h.word(w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		h.word(w)
	}
}

// key mixes an existing 128-bit key (e.g. a child term's StructuralKey).
func (h *keyHasher) key(k StructKey) {
	h.word(k.Hi)
	h.word(k.Lo)
}

// sum finalizes and returns the 128-bit fingerprint. The hasher may keep
// absorbing after a sum; sum itself does not mutate state.
func (h *keyHasher) sum() StructKey {
	return StructKey{
		Hi: mix64(h.hi ^ (h.lo >> 32) ^ (h.lo << 32)),
		Lo: mix64(h.lo ^ h.hi),
	}
}

// structKeyParts computes a node's canonical key from its shape. It must
// depend only on structure: the operator, the constant, the variable name
// *string* (never the process-local name ID), and the children's keys —
// each child tagged by its position so (a,b) and (b,a) differ, and absent
// children contribute an explicit marker so (a,nil) and (nil,a) differ.
func structKeyParts(op Op, c int64, name string, a, b, t, f *Expr) StructKey {
	h := newKeyHasher()
	h.word(uint64(op))
	h.word(uint64(c))
	h.str(name)
	for _, ch := range [...]*Expr{a, b, t, f} {
		if ch == nil {
			h.word(0)
			continue
		}
		h.word(1)
		h.key(ch.skey)
	}
	return h.sum()
}
