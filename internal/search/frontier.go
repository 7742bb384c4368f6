package search

import (
	"math/rand"
	"sort"

	"esd/internal/symex"
)

// queueFrontier owns one frontier's live-state structures: the §3.4
// virtual priority queues (ESD), the plain pool (DFS/RandomPath), and the
// anti-starvation FIFO. The sequential search's worker owns one; the
// workers of a frontier-parallel run share one behind parallelRun.mu.
//
// The heaps and the FIFO hold state IDs, never states: alive is the only
// structure that reaches a queued state, so a state that leaves the
// frontier is collectable at once, however many stale entries it left
// behind. Those entries die lazily, and a compaction at pick time drops
// them in bulk once they have doubled the entry count (see maybeCompact).
//
// A queueFrontier is not safe for concurrent use; a parallel run holds its
// lock around every method.
type queueFrontier struct {
	strategy    Strategy
	schedGuided bool
	numQueues   int

	// alive maps each live state's ID to the state and the per-queue ESD
	// keys it was scored with at insertion (nil keys for non-ESD
	// strategies). Heap and FIFO entries die lazily; membership here is
	// the liveness truth.
	alive map[int]liveState
	// pool is the ordered live-state slice for DFS/RandomPath.
	pool []*symex.State
	// heaps are the per-goal virtual priority queues (lazy deletion).
	heaps []keyHeap
	// fifo holds live state IDs in insertion order; every agingPeriod-th
	// ESD pick drains from here instead of the fitness heaps. Pure
	// best-first livelocks when scheduling policies fork equal-fitness
	// states faster than lineages terminate (every successor waits behind
	// the whole band); the aging pick guarantees each state is eventually
	// run, which is what completes multi-party deadlock lineages.
	fifo  []int
	picks int
	// compactAt is the heap and FIFO entry count at which the next pick
	// compacts.
	compactAt int
	// spent holds the keys of the state the last pick took, until the
	// picker claims them (spentKeys): nothing else references them once
	// the state left alive, so its next scoring can fill them.
	spent []esdKey
}

// liveState is one alive entry: the state and its insertion keys.
type liveState struct {
	st   *symex.State
	keys []esdKey
}

func newQueueFrontier(strategy Strategy, schedGuided bool, numQueues int) *queueFrontier {
	return &queueFrontier{
		strategy:    strategy,
		schedGuided: schedGuided,
		numQueues:   numQueues,
		alive:       map[int]liveState{},
		heaps:       make([]keyHeap, numQueues),
		compactAt:   compactFloor,
	}
}

// size is the number of live states.
func (f *queueFrontier) size() int { return len(f.alive) }

// insert adds a live state with its per-queue keys (nil outside ESD).
func (f *queueFrontier) insert(st *symex.State, keys []esdKey) {
	f.alive[st.ID] = liveState{st: st, keys: keys}
	if f.strategy == StrategyESD {
		for q := range f.heaps {
			f.heaps[q].push(keys[q])
		}
		if f.schedGuided {
			// Only schedule-guided searches drain the aging FIFO; feeding
			// it otherwise would only grow it.
			f.fifo = append(f.fifo, st.ID)
		}
	} else {
		f.pool = append(f.pool, st)
	}
}

// take removes the live state with the given ID from the frontier and
// returns it (nil when it is not live; its entries die lazily). Its keys
// become spent.
func (f *queueFrontier) take(id int) *symex.State {
	ls, ok := f.alive[id]
	if !ok {
		return nil
	}
	delete(f.alive, id)
	f.spent = ls.keys
	return ls.st
}

// spentKeys hands the caller the keys of the state the last pick took
// (nil when there are none), for the caller's next scoreState to fill.
func (f *queueFrontier) spentKeys() []esdKey {
	k := f.spent
	f.spent = nil
	return k
}

// compactFloor is the entry count below which a frontier never compacts:
// tiny heaps are cheaper to leave alone.
const compactFloor = 1024

// maybeCompact drops every heap and FIFO entry whose state is no longer
// live and re-heapifies, once the entries have doubled since the last
// compaction (so its cost is amortized over the pushes that doubled
// them). Call it only at pick time, while none of this frontier's states
// is in flight: a state missing from alive then never comes back, so its
// entries could only ever be popped and skipped. A parallel run breaks
// that rule for the states other workers are running; dropping their
// stale entries loses no state, because each goes back in with fresh keys
// when its quantum ends.
//
// Compaction changes no pick. Stale entries of live states stay (a
// re-inserted state can still be picked on an older key), and since
// (fit, id) is a total order in which equal keys name the same state, a
// binary heap's pop sequence depends only on its multiset of keys, not
// on its layout.
func (f *queueFrontier) maybeCompact() {
	n := len(f.fifo)
	for _, h := range f.heaps {
		n += len(h)
	}
	if n < f.compactAt {
		return
	}
	n = 0
	for q, h := range f.heaps {
		kept := h[:0]
		for _, k := range h {
			if _, live := f.alive[k.id]; live {
				kept = append(kept, k)
			}
		}
		kept.heapify()
		f.heaps[q] = kept
		n += len(kept)
	}
	fifo := f.fifo[:0]
	for _, id := range f.fifo {
		if _, live := f.alive[id]; live {
			fifo = append(fifo, id)
		}
	}
	f.fifo = fifo
	f.compactAt = max(2*(n+len(fifo)), compactFloor)
}

// pick removes and returns the next state to run per strategy, plus
// whether it came from the aging FIFO. rng drives queue selection, so two
// runs with the same seed pick identically.
func (f *queueFrontier) pick(rng *rand.Rand) (*symex.State, bool) {
	if f.strategy == StrategyESD {
		f.maybeCompact()
		return f.pickESD(rng)
	}
	// DFS / RandomPath operate on the pool slice, compacting dead entries.
	for len(f.pool) > 0 {
		var idx int
		switch f.strategy {
		case StrategyDFS:
			idx = len(f.pool) - 1 // most recently added
		default:
			idx = rng.Intn(len(f.pool))
		}
		st := f.pool[idx]
		f.pool = append(f.pool[:idx], f.pool[idx+1:]...)
		if f.take(st.ID) != nil {
			return st, false
		}
	}
	return nil, false
}

// popQueue removes and returns the best live state in virtual queue q
// (nil when the queue holds no live state). Every live state is in every
// queue's heap, so an empty queue means an empty frontier.
func (f *queueFrontier) popQueue(q int) *symex.State {
	for {
		k, ok := f.heaps[q].pop()
		if !ok {
			return nil
		}
		if st := f.take(k.id); st != nil {
			return st
		}
	}
}

// pickFIFO removes and returns the oldest live state (entries for states
// already taken die lazily, as in the heaps).
func (f *queueFrontier) pickFIFO() *symex.State {
	for len(f.fifo) > 0 {
		id := f.fifo[0]
		f.fifo = f.fifo[1:]
		if st := f.take(id); st != nil {
			return st
		}
	}
	return nil
}

// pickESD chooses a virtual queue uniformly at random and takes its best
// live state: lowest (fitness, ID), where fitness weights the graded §4.1
// schedule distance far above the instruction-level data distance. Entries
// for states already taken are discarded lazily. Every agingPeriod-th pick
// comes from the insertion-order FIFO instead (see the fifo field).
func (f *queueFrontier) pickESD(rng *rand.Rand) (*symex.State, bool) {
	if f.schedGuided {
		f.picks++
		if f.picks%agingPeriod == 0 {
			if st := f.pickFIFO(); st != nil {
				return st, true
			}
		}
	}
	for attempts := 0; attempts < 2*len(f.heaps); attempts++ {
		if st := f.popQueue(rng.Intn(len(f.heaps))); st != nil {
			return st, false
		}
		// This queue is drained; try another.
	}
	// All sampled queues empty: scan for any remaining live state.
	for q := range f.heaps {
		if st := f.popQueue(q); st != nil {
			return st, false
		}
	}
	return nil, false
}

// shedWorst drops the worse half of the live states, for sequential and
// frontier-parallel runs alike, and returns the number dropped. ESD ranks
// them by the final-goal keys they were inserted with: a queued state has
// not run since it was scored, so its keys are what a re-scoring would
// compute.
func (f *queueFrontier) shedWorst() int {
	if f.size() < 2 {
		return 0
	}
	if f.strategy != StrategyESD {
		// No fitness to rank by: keep the newest half (the pool tail),
		// matching DFS's preference for deep states.
		keepFrom := len(f.pool) / 2
		kept := make([]liveState, 0, len(f.pool)-keepFrom)
		for _, st := range f.pool[keepFrom:] {
			if ls, ok := f.alive[st.ID]; ok {
				kept = append(kept, ls)
			}
		}
		dropped := f.size() - len(kept)
		f.reset()
		for _, ls := range kept {
			f.insert(ls.st, ls.keys)
		}
		return dropped
	}
	arr := make([]liveState, 0, f.size())
	for _, ls := range f.alive {
		arr = append(arr, ls)
	}
	// Rank by the final-goal key (the last queue); keys are total (unique
	// state IDs), so the order is deterministic despite map iteration.
	last := f.numQueues - 1
	sort.Slice(arr, func(i, j int) bool { return arr[i].keys[last].less(arr[j].keys[last]) })
	keep := len(arr) / 2
	dropped := len(arr) - keep
	f.reset()
	for _, ls := range arr[:keep] {
		f.insert(ls.st, ls.keys)
	}
	return dropped
}

// reset clears every structure, dropping backing arrays so shed states
// become collectable. The pick cadence (picks) survives.
func (f *queueFrontier) reset() {
	f.alive = map[int]liveState{}
	f.pool = nil
	f.fifo = nil
	f.heaps = make([]keyHeap, f.numQueues)
	f.compactAt = compactFloor
}

// keyHeap is a binary min-heap of esdKeys. A key names its state by ID.
type keyHeap []esdKey

func (h *keyHeap) push(k esdKey) {
	*h = append(*h, k)
	h.up(len(*h) - 1)
}

func (h *keyHeap) pop() (esdKey, bool) {
	old := *h
	if len(old) == 0 {
		return esdKey{}, false
	}
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top, true
}

// heapify restores the heap order of an arbitrary key slice.
func (h keyHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h keyHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h keyHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].less(h[m]) {
			m = l
		}
		if r < n && h[r].less(h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
