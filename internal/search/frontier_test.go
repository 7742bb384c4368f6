package search

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"weak"

	"esd/internal/symex"
)

// refFrontier is the pointer-keyed lazy-deletion ESD frontier the
// ID-keyed one replaced, kept verbatim as the differential reference:
// heap and FIFO entries hold the states themselves and are never
// compacted.
type refFrontier struct {
	schedGuided bool
	numQueues   int
	alive       map[*symex.State][]esdKey
	heaps       []refHeap
	fifo        []*symex.State
	picks       int
}

type refEntry struct {
	st  *symex.State
	key esdKey
}

type refHeap []refEntry

func newRefFrontier(schedGuided bool, numQueues int) *refFrontier {
	return &refFrontier{
		schedGuided: schedGuided,
		numQueues:   numQueues,
		alive:       map[*symex.State][]esdKey{},
		heaps:       make([]refHeap, numQueues),
	}
}

func (f *refFrontier) insert(st *symex.State, keys []esdKey) {
	f.alive[st] = keys
	for q := range f.heaps {
		f.heaps[q].push(refEntry{st: st, key: keys[q]})
	}
	if f.schedGuided {
		f.fifo = append(f.fifo, st)
	}
}

func (f *refFrontier) pickFIFO() *symex.State {
	for len(f.fifo) > 0 {
		st := f.fifo[0]
		f.fifo = f.fifo[1:]
		if _, ok := f.alive[st]; ok {
			delete(f.alive, st)
			return st
		}
	}
	return nil
}

func (f *refFrontier) pick(rng *rand.Rand) (*symex.State, bool) {
	if f.schedGuided {
		f.picks++
		if f.picks%agingPeriod == 0 {
			if st := f.pickFIFO(); st != nil {
				return st, true
			}
		}
	}
	for attempts := 0; attempts < 2*len(f.heaps); attempts++ {
		q := rng.Intn(len(f.heaps))
		for {
			e, ok := f.heaps[q].pop()
			if !ok {
				break
			}
			if _, live := f.alive[e.st]; live {
				delete(f.alive, e.st)
				return e.st, false
			}
		}
	}
	for q := range f.heaps {
		for {
			e, ok := f.heaps[q].pop()
			if !ok {
				break
			}
			if _, live := f.alive[e.st]; live {
				delete(f.alive, e.st)
				return e.st, false
			}
		}
	}
	return nil, false
}

func (f *refFrontier) shedWorst() int {
	if len(f.alive) < 2 {
		return 0
	}
	type scored struct {
		st   *symex.State
		keys []esdKey
	}
	arr := make([]scored, 0, len(f.alive))
	for st, keys := range f.alive {
		arr = append(arr, scored{st, keys})
	}
	last := f.numQueues - 1
	sort.Slice(arr, func(i, j int) bool { return arr[i].keys[last].less(arr[j].keys[last]) })
	keep := len(arr) / 2
	f.alive = map[*symex.State][]esdKey{}
	f.fifo = nil
	f.heaps = make([]refHeap, f.numQueues)
	for i := 0; i < keep; i++ {
		f.insert(arr[i].st, arr[i].keys)
	}
	return len(arr) - keep
}

func (h *refHeap) push(e refEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h)[i].key.less((*h)[p].key) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *refHeap) pop() (refEntry, bool) {
	old := *h
	if len(old) == 0 {
		return refEntry{}, false
	}
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && (*h)[l].key.less((*h)[m].key) {
			m = l
		}
		if r < n && (*h)[r].key.less((*h)[m].key) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top, true
}

// randomKeys draws one key per queue for st. A narrow fitness range makes
// ties common, so the ID tie-break is exercised too.
func randomKeys(r *rand.Rand, st *symex.State, queues int) []esdKey {
	keys := make([]esdKey, queues)
	for q := range keys {
		keys[q] = esdKey{fit: r.Int63n(64), id: st.ID}
	}
	return keys
}

// TestFrontierMatchesPointerKeyedReference drives the ID-keyed compacting
// frontier and the pointer-keyed reference through the same fixed-seed
// operation stream: inserts over six queues, ESD picks on rngs with a
// shared seed, re-inserts of picked states under new keys, permanent
// drops, and periodic sheds. Picks, aging flags, shed counts and rng draw
// counts must match exactly, with compactions happening along the way.
func TestFrontierMatchesPointerKeyedReference(t *testing.T) {
	const (
		queues = 6
		ops    = 60000
	)
	for _, guided := range []bool{true, false} {
		got := newQueueFrontier(StrategyESD, guided, queues)
		ref := newRefFrontier(guided, queues)
		gotSrc := &countingSource{src: rand.NewSource(7)}
		refSrc := &countingSource{src: rand.NewSource(7)}
		gotRng, refRng := rand.New(gotSrc), rand.New(refSrc)
		r := rand.New(rand.NewSource(1))

		nextID, picks, compactions := 0, 0, 0
		for op := 0; op < ops; op++ {
			switch x := r.Intn(100); {
			case x < 40 || len(ref.alive) == 0:
				st := &symex.State{ID: nextID}
				nextID++
				keys := randomKeys(r, st, queues)
				got.insert(st, keys)
				ref.insert(st, keys)
			default:
				before := got.compactAt
				gst, gaged := got.pick(gotRng)
				rst, raged := ref.pick(refRng)
				if got.compactAt != before {
					compactions++
				}
				picks++
				if gst != rst || gaged != raged {
					t.Fatalf("guided=%v op %d: picked %v (aged %v), reference %v (aged %v)",
						guided, op, stateID(gst), gaged, stateID(rst), raged)
				}
				if rst != nil && r.Intn(100) < 65 {
					// Re-insert under new keys; the older entries stay
					// behind and can still win a pick.
					keys := randomKeys(r, rst, queues)
					got.insert(rst, keys)
					ref.insert(rst, keys)
				}
				// Otherwise the picked state is dropped for good.
			}
			if op%5000 == 4999 {
				if g, w := got.shedWorst(), ref.shedWorst(); g != w {
					t.Fatalf("guided=%v op %d: shed %d states, reference %d", guided, op, g, w)
				}
			}
			if got.size() != len(ref.alive) {
				t.Fatalf("guided=%v op %d: %d live states, reference %d", guided, op, got.size(), len(ref.alive))
			}
		}
		if gotSrc.draws != refSrc.draws {
			t.Fatalf("guided=%v: %d rng draws, reference %d", guided, gotSrc.draws, refSrc.draws)
		}
		if compactions == 0 {
			t.Fatalf("guided=%v: %d picks and no compaction", guided, picks)
		}
		t.Logf("guided=%v: %d picks, %d compactions, %d rng draws", guided, picks, compactions, gotSrc.draws)
	}
}

func stateID(st *symex.State) int {
	if st == nil {
		return -1
	}
	return st.ID
}

// TestFrontierReleasesPickedStates: a state picked and not re-inserted is
// unreachable from the frontier, although its entries in the other five
// heaps (and the FIFO) are still there.
func TestFrontierReleasesPickedStates(t *testing.T) {
	const n = 300
	f := newQueueFrontier(StrategyESD, true, 6)
	rng := rand.New(rand.NewSource(3))
	ptrs := make([]weak.Pointer[symex.State], n)
	for i := range ptrs {
		st := &symex.State{ID: i}
		ptrs[i] = weak.Make(st)
		f.insert(st, randomKeys(rng, st, 6))
	}
	for i := 0; i < n; i++ {
		if st, _ := f.pick(rng); st == nil {
			t.Fatalf("pick %d found no state", i)
		}
	}
	runtime.GC()
	for i, p := range ptrs {
		if p.Value() != nil {
			t.Fatalf("state %d is still reachable after its pick", i)
		}
	}
	runtime.KeepAlive(f)
}
