// Package pcache is the persistent cross-run solver-fact tier: an
// append-log + snapshot file store of definite component verdicts (and
// their verified models) keyed by (program fingerprint, canonical
// structural component key). It is the on-disk realization of ROADMAP
// item 5 — because keys are expr.StructKeys, not intern identities, a
// verdict written by one process is a hit in the next, across restarts,
// collections of the terms, and (with a shared directory) across a
// fleet's shards.
//
// The file layout mirrors internal/jobs.FileStore:
//
//	<dir>/solver.snap — JSON snapshot of every entry at the last compaction
//	<dir>/solver.wal  — JSONL redo log of every publish since
//
// Unlike the job store, appends are NOT fsynced: this is a cache, not a
// ledger. A write lost to a machine crash costs a future solve, nothing
// more; surviving process death (the common case) needs only the write
// to have reached the OS. A torn final WAL line is detected by JSON
// parse failure on replay and dropped. The snapshot is still written
// temp + fsync + rename, so compaction can never destroy the previous
// good state.
//
// Safety: the store itself is dumb — it never decides satisfiability.
// The solver re-verifies every Sat model by concrete evaluation before
// serving a hit (solver.PersistentCache's contract), so corruption here
// degrades hit rate, never correctness. The snapshot schema embeds
// expr.StructKeyVersion: entries written under a different structural-
// hash algorithm are discarded wholesale at open.
package pcache

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"esd/internal/expr"
	"esd/internal/solver"
)

const (
	snapName = "solver.snap"
	walName  = "solver.wal"
	// compactEvery bounds WAL replay at open. Publishes are one line
	// each and cheap (no fsync), so the threshold is generous.
	compactEvery = 8192
	// maxEntriesPerProgram bounds one program's fact set. Past the cap,
	// publishes are dropped (counted): a program generating this many
	// distinct components is churning, and churn should not grow the
	// store without bound.
	maxEntriesPerProgram = 1 << 16
)

// snapSchema ties the on-disk format to the structural-key algorithm:
// bumping expr.StructKeyVersion silently invalidates every existing
// store, which is exactly right — old keys would never be looked up
// under the new algorithm, they would only rot.
var snapSchema = fmt.Sprintf("esd.pcache/v1.k%d", expr.StructKeyVersion)

type entry struct {
	keys  []expr.StructKey
	res   solver.Result
	model map[string]int64
}

// record is the wire form of one entry (a WAL line, and the snapshot's
// element type). Keys are 32-hex-digit strings (Hi then Lo).
type record struct {
	FP    string           `json:"fp"`
	Keys  []string         `json:"k"`
	Res   string           `json:"r"`
	Model map[string]int64 `json:"m,omitempty"`
}

type snapFile struct {
	Schema  string   `json:"schema"`
	Entries []record `json:"entries"`
}

// Store is the persistent solver-fact store. Safe for concurrent use:
// parallel search attaches per-program views (ForProgram) to every
// worker's solver.
type Store struct {
	dir string

	mu         sync.RWMutex
	progs      map[uint64]map[uint64][]entry // program fp → bucket → chain
	counts     map[uint64]int                // program fp → entry count
	wal        *os.File
	walRecords int
	closed     bool

	hits        atomic.Int64
	misses      atomic.Int64
	publishes   atomic.Int64
	dropped     atomic.Int64
	loaded      int64
	loadRejects int64
}

// Open opens (creating if needed) the persistent solver cache in dir,
// replays its snapshot and WAL, and compacts. A snapshot with a foreign
// schema (older format, or a different structural-key version) is
// discarded rather than erroring: the store is a cache, and stale keys
// would never hit anyway.
func Open(dir string) (*Store, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pcache: creating store dir: %w", err)
	}
	s := &Store{dir: dir, progs: map[uint64]map[uint64][]entry{}, counts: map[uint64]int{}}

	snapPath := filepath.Join(dir, snapName)
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap snapFile
		if jerr := json.Unmarshal(data, &snap); jerr == nil && snap.Schema == snapSchema {
			for _, rec := range snap.Entries {
				s.ingest(rec)
			}
		} else {
			s.loadRejects++
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("pcache: reading snapshot: %w", err)
	}

	walPath := filepath.Join(dir, walName)
	if f, err := os.Open(walPath); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			var rec record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				// Torn final line from a crash mid-append: everything
				// before it is intact, everything after unreachable.
				break
			}
			s.ingest(rec)
			s.walRecords++
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("pcache: reading WAL: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("pcache: opening WAL: %w", err)
	}

	// Fold the replayed WAL into a fresh snapshot immediately, bounding
	// the next open's replay.
	if err := s.compactLocked(); err != nil {
		return nil, err
	}
	loadNanos.Observe(time.Since(start).Nanoseconds())
	entriesLoaded.Add(s.loaded)
	loadRejects.Add(s.loadRejects)
	return s, nil
}

// ingest decodes and indexes one record, counting malformed or capped
// ones as load rejects/drops. Only used during Open (single-threaded).
func (s *Store) ingest(rec record) {
	fp, err := strconv.ParseUint(rec.FP, 16, 64)
	if err != nil || len(rec.Keys) == 0 {
		s.loadRejects++
		return
	}
	var res solver.Result
	switch rec.Res {
	case "sat":
		res = solver.Sat
	case "unsat":
		res = solver.Unsat
	default:
		s.loadRejects++
		return
	}
	keys := make([]expr.StructKey, len(rec.Keys))
	for i, ks := range rec.Keys {
		k, ok := parseKey(ks)
		if !ok {
			s.loadRejects++
			return
		}
		keys[i] = k
	}
	if s.counts[fp] >= maxEntriesPerProgram {
		s.loadRejects++
		return
	}
	if s.putLocked(fp, keys, res, rec.Model) {
		s.loaded++
	}
}

// putLocked indexes an entry (idempotent). Called with s.mu held (or
// single-threaded during Open).
func (s *Store) putLocked(fp uint64, keys []expr.StructKey, res solver.Result, model map[string]int64) bool {
	buckets := s.progs[fp]
	if buckets == nil {
		buckets = map[uint64][]entry{}
		s.progs[fp] = buckets
	}
	b := bucketOf(keys)
	if findEntry(buckets[b], keys) >= 0 {
		return false
	}
	buckets[b] = append(buckets[b], entry{keys: keys, res: res, model: model})
	s.counts[fp]++
	return true
}

func findEntry(chain []entry, keys []expr.StructKey) int {
outer:
	for i, ent := range chain {
		if len(ent.keys) != len(keys) {
			continue
		}
		for j, k := range keys {
			if ent.keys[j] != k {
				continue outer
			}
		}
		return i
	}
	return -1
}

// bucketOf hashes a key slice onto a chain bucket (FNV over both words).
func bucketOf(keys []expr.StructKey) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, k := range keys {
		h ^= k.Hi
		h *= prime
		h ^= k.Lo
		h *= prime
	}
	return h
}

func formatKey(k expr.StructKey) string {
	return fmt.Sprintf("%016x%016x", k.Hi, k.Lo)
}

func parseKey(s string) (expr.StructKey, bool) {
	if len(s) != 32 {
		return expr.StructKey{}, false
	}
	hi, err1 := strconv.ParseUint(s[:16], 16, 64)
	lo, err2 := strconv.ParseUint(s[16:], 16, 64)
	if err1 != nil || err2 != nil {
		return expr.StructKey{}, false
	}
	return expr.StructKey{Hi: hi, Lo: lo}, true
}

// ForProgram returns the solver-facing view of this program's facts. The
// view implements solver.PersistentCache; the engine attaches one per
// synthesis, scoped by mir.Program.Fingerprint. Structural keys are
// program-independent truths, so the scoping is about bounding lookup
// sets and keeping the per-program cap fair, not correctness.
func (s *Store) ForProgram(fp uint64) *ProgView {
	return &ProgView{s: s, fp: fp}
}

// ProgView is a Store scoped to one program fingerprint. It implements
// solver.PersistentCache.
type ProgView struct {
	s  *Store
	fp uint64
}

// Lookup returns the stored verdict for the component with exactly these
// structural keys, if any. The model is shared read-only.
func (v *ProgView) Lookup(keys []expr.StructKey) (solver.Result, map[string]int64, bool) {
	s := v.s
	s.mu.RLock()
	var ent entry
	i := -1
	if buckets := s.progs[v.fp]; buckets != nil {
		chain := buckets[bucketOf(keys)]
		if i = findEntry(chain, keys); i >= 0 {
			ent = chain[i]
		}
	}
	s.mu.RUnlock()
	if i >= 0 {
		s.hits.Add(1)
		return ent.res, ent.model, true
	}
	s.misses.Add(1)
	return solver.Unknown, nil, false
}

// Publish stores a definite verdict, appending it to the WAL (not
// fsynced — see the package comment) and compacting when the log fills.
// Unknown is dropped; duplicates are no-ops; publishes past the
// per-program cap are dropped and counted.
func (v *ProgView) Publish(keys []expr.StructKey, res solver.Result, model map[string]int64) {
	if res == solver.Unknown || len(keys) == 0 {
		return
	}
	s := v.s
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.counts[v.fp] >= maxEntriesPerProgram {
		s.mu.Unlock()
		s.dropped.Add(1)
		droppedTotal.Inc()
		return
	}
	if !s.putLocked(v.fp, keys, res, model) {
		s.mu.Unlock()
		return
	}
	err := s.appendLocked(record{
		FP:    fmt.Sprintf("%016x", v.fp),
		Keys:  keysWire(keys),
		Res:   res.String(),
		Model: model,
	})
	s.mu.Unlock()
	if err == nil {
		s.publishes.Add(1)
		publishesTotal.Inc()
	} else {
		// The entry stays served from memory; only durability was lost.
		s.dropped.Add(1)
		droppedTotal.Inc()
	}
}

func keysWire(keys []expr.StructKey) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = formatKey(k)
	}
	return out
}

// appendLocked writes one WAL line, compacting first when the log is
// full. Called with s.mu held.
func (s *Store) appendLocked(rec record) error {
	if s.wal == nil {
		return fmt.Errorf("pcache: store is closed")
	}
	if s.walRecords >= compactEvery {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := s.wal.Write(line); err != nil {
		return err
	}
	s.walRecords++
	return nil
}

// compactLocked rewrites the snapshot from memory (temp + fsync +
// rename) and truncates the WAL. Called with s.mu held.
func (s *Store) compactLocked() error {
	start := time.Now()
	snap := snapFile{Schema: snapSchema}
	for fp, buckets := range s.progs {
		fps := fmt.Sprintf("%016x", fp)
		for _, chain := range buckets {
			for _, ent := range chain {
				snap.Entries = append(snap.Entries, record{
					FP:    fps,
					Keys:  keysWire(ent.keys),
					Res:   ent.res.String(),
					Model: ent.model,
				})
			}
		}
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("pcache: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pcache: writing snapshot: %w", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pcache: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return fmt.Errorf("pcache: installing snapshot: %w", err)
	}

	if s.wal != nil {
		s.wal.Close()
	}
	wal, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("pcache: resetting WAL: %w", err)
	}
	s.wal = wal
	s.walRecords = 0
	flushNanos.Observe(time.Since(start).Nanoseconds())
	return nil
}

// Flush forces a compaction now: everything in memory lands in the
// snapshot with full fsync durability. The engine calls it at Close.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.compactLocked()
}

// Close flushes and closes the store. Further publishes are dropped;
// lookups keep answering from memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.compactLocked()
	s.closed = true
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
		s.wal = nil
	}
	return err
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	// Programs and Entries size the in-memory index.
	Programs int `json:"programs"`
	Entries  int `json:"entries"`
	// Hits/Misses count Lookup outcomes across all program views;
	// Publishes counts entries durably appended; Dropped counts
	// publishes lost to the per-program cap or append errors.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Publishes int64 `json:"publishes"`
	Dropped   int64 `json:"dropped"`
	// LoadRejects counts records discarded at open (foreign schema,
	// malformed, or over-cap).
	LoadRejects int64 `json:"load_rejects"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	programs := len(s.progs)
	entries := 0
	for _, n := range s.counts {
		entries += n
	}
	rejects := s.loadRejects
	s.mu.RUnlock()
	return Stats{
		Programs:    programs,
		Entries:     entries,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Publishes:   s.publishes.Load(),
		Dropped:     s.dropped.Load(),
		LoadRejects: rejects,
	}
}
