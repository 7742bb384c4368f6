package solver

import (
	"sync"
	"sync/atomic"

	"esd/internal/expr"
)

// SharedCache is a concurrency-safe fact layer over solved constraint
// components, shared by the solvers of one frontier-parallel run's
// workers; the search creates one per parallel run, and a sequential run,
// with its one solver, has none. Per-worker solvers stay single-threaded
// and keep their private memo as the first-level cache; on a private miss
// they consult the shared layer before paying for a solve, and publish
// the verified verdict after, so parallel workers do not re-solve the
// components their siblings already answered.
//
// Sharing is sound and deterministic because a component verdict is a
// pure function of the component: the key is the exact sorted slice of
// the conjuncts' canonical structural keys (expr.StructKey — stable
// across collections, restarts, and processes), and the backtracking
// search that decides a component is deterministic with a fixed node
// budget, so whichever solver publishes first publishes the same answer
// every other solver would have computed. Only definite verdicts (Sat
// with a verified model, Unsat) are published: Unknown is a budget
// artifact, not a fact. Model maps are shared read-only, the same
// invariant the private cache already relies on.
//
// Structural keys keep the cache valid across collections: entries hold
// no term pointers (models are plain name→value maps), and a term
// re-interned after its collection hashes to the same key. The cache's
// lifetime is bounded by the run that owns it.
type SharedCache struct {
	shards [sharedShards]sharedShard

	hits      atomic.Int64
	misses    atomic.Int64
	publishes atomic.Int64
	evictions atomic.Int64
}

const sharedShards = 32

type sharedShard struct {
	mu sync.RWMutex
	m  map[uint64][]cacheEntry
}

// maxSharedEntriesPerShard bounds the shared cache (~128k components
// total). Past the cap, publishes are dropped rather than evicting:
// eviction under concurrent readers buys complexity for a case (a single
// run solving >128k distinct components) that budget exhaustion reaches
// first. Dropped publishes are counted (Evictions,
// esd_solver_shared_evictions_total) so a hit-rate collapse at the cap is
// diagnosable instead of silent.
const maxSharedEntriesPerShard = 4096

// NewSharedCache returns an empty shared fact layer.
func NewSharedCache() *SharedCache {
	c := &SharedCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64][]cacheEntry)
	}
	return c
}

// lookup returns a previously published verdict for the component with
// exactly these structural keys.
func (c *SharedCache) lookup(key uint64, keys []expr.StructKey) (cacheEntry, bool) {
	s := &c.shards[key%sharedShards]
	s.mu.RLock()
	chain := s.m[key]
	i := matchEntry(chain, keys)
	var ent cacheEntry
	if i >= 0 {
		ent = chain[i]
	}
	s.mu.RUnlock()
	if i >= 0 {
		c.hits.Add(1)
		sharedHits.Inc()
		return ent, true
	}
	c.misses.Add(1)
	sharedMisses.Inc()
	return cacheEntry{}, false
}

// publish stores a definite component verdict. Sat entries must carry a
// model verified by concrete evaluation (checkComponent's invariant);
// Unknown results are rejected — they reflect the publisher's node
// budget, not a property of the component.
func (c *SharedCache) publish(key uint64, keys []expr.StructKey, res Result, model map[string]int64) {
	if res == Unknown {
		return
	}
	s := &c.shards[key%sharedShards]
	s.mu.Lock()
	chain := s.m[key]
	if i := matchEntry(chain, keys); i >= 0 {
		// A sibling raced us to the same component; verdicts are equal by
		// determinism, so keep the incumbent.
		s.mu.Unlock()
		return
	}
	if len(s.m) >= maxSharedEntriesPerShard {
		s.mu.Unlock()
		c.evictions.Add(1)
		sharedEvictions.Inc()
		return
	}
	s.m[key] = append(chain, cacheEntry{keys: keys, res: res, model: model})
	s.mu.Unlock()
	c.publishes.Add(1)
	sharedPublishes.Inc()
}

// SharedCacheStats is a point-in-time snapshot of a SharedCache.
type SharedCacheStats struct {
	// Hits and Misses count lookups from private-cache misses; Publishes
	// counts definite verdicts stored.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Publishes int64 `json:"publishes"`
	// Evictions counts publishes dropped at the per-shard cap — verdicts
	// the run solved but could not share.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached component verdicts.
	Entries int64 `json:"entries"`
}

// Stats snapshots the cache counters.
func (c *SharedCache) Stats() SharedCacheStats {
	var entries int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, chain := range s.m {
			entries += int64(len(chain))
		}
		s.mu.RUnlock()
	}
	return SharedCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Publishes: c.publishes.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}
