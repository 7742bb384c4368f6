package search

import (
	"sync"
	"sync/atomic"

	"esd/internal/expr"
	"esd/internal/symex"
)

// PruneFacts is a concurrency-safe memo of infinite-distance prune
// verdicts, shared by every searcher of one synthesis request: all
// frontier-parallel workers of a run. The infinite-distance gate
// (searcher.prunable's second gate) is a pure function of the live
// threads' stack configurations and the request's final goals — both
// fixed for the request — so whichever worker proves a configuration
// dead (or live) proves it for everyone.
//
// The memo is request-scoped by construction: verdicts depend on the
// report's goal set, so a PruneFacts must never be reused across
// requests for different reports. The engine creates one per synthesis
// alongside the shared solver cache.
//
// Keys are 128-bit canonical fingerprints of the live stack
// configuration, built with expr.KeyHasher — the same mixer behind
// expr.StructKey, so keys are stable across workers, collections, and
// processes. This replaced the exact string serialization: a collision
// would flip a prune decision, but at 128 bits the probability is
// ~2^-88 even for a 2^20-configuration run — far below any hardware
// error rate — and the fingerprint avoids allocating a fresh key string
// per frontier state on the hot path.
type PruneFacts struct {
	shards [pruneShards]pruneShard

	hits      atomic.Int64
	misses    atomic.Int64
	publishes atomic.Int64
}

const pruneShards = 16

// maxPruneEntriesPerShard bounds the memo (~64k configurations total).
// Past the cap, publishes are dropped; lookups keep working on what was
// learned early, which is where the shared dead ends concentrate anyway.
const maxPruneEntriesPerShard = 4096

type pruneShard struct {
	mu sync.RWMutex
	m  map[expr.StructKey]bool
}

// NewPruneFacts returns an empty shared prune memo.
func NewPruneFacts() *PruneFacts {
	p := &PruneFacts{}
	for i := range p.shards {
		p.shards[i].m = make(map[expr.StructKey]bool)
	}
	return p
}

// lookup returns a previously published verdict for the configuration.
func (p *PruneFacts) lookup(key expr.StructKey) (infinite, ok bool) {
	s := &p.shards[key.Lo%pruneShards]
	s.mu.RLock()
	infinite, ok = s.m[key]
	s.mu.RUnlock()
	if ok {
		p.hits.Add(1)
		pruneFactHits.Inc()
	} else {
		p.misses.Add(1)
		pruneFactMisses.Inc()
	}
	return infinite, ok
}

// publish stores a verdict for the configuration.
func (p *PruneFacts) publish(key expr.StructKey, infinite bool) {
	s := &p.shards[key.Lo%pruneShards]
	s.mu.Lock()
	if _, dup := s.m[key]; !dup && len(s.m) < maxPruneEntriesPerShard {
		s.m[key] = infinite
		s.mu.Unlock()
		p.publishes.Add(1)
		pruneFactPublishes.Inc()
		return
	}
	s.mu.Unlock()
}

// PruneFactsStats is a point-in-time snapshot of a PruneFacts memo.
type PruneFactsStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Publishes int64 `json:"publishes"`
}

// Stats snapshots the memo counters.
func (p *PruneFacts) Stats() PruneFactsStats {
	return PruneFactsStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Publishes: p.publishes.Load(),
	}
}

// pruneFactKey fingerprints the stack configuration the infinite-distance
// gate depends on: every live thread's full stack of locations, in thread
// order. Exited threads contribute nothing (the gate skips them), and
// explicit frame/thread markers keep boundaries unambiguous so distinct
// configurations cannot fingerprint equal except by 128-bit collision.
func pruneFactKey(st *symex.State) expr.StructKey {
	h := expr.NewKeyHasher()
	for _, t := range st.Threads {
		if t.Status == symex.ThreadExited {
			continue
		}
		for _, l := range t.Stack() {
			h.Str(l.Fn)
			h.Word(uint64(int64(l.Block)))
			h.Word(uint64(int64(l.Index)))
			h.Word(1) // frame marker
		}
		h.Word(2) // thread marker
	}
	return h.Sum()
}
