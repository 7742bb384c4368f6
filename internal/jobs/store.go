package jobs

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"esd/internal/wal"
)

// Store holds job records: in memory only (NewStore), or also on disk
// under one directory (Open) as a snapshot plus a log:
//
//	<dir>/jobs.snap — JSON snapshot of every job at the last compaction
//	<dir>/jobs.wal  — JSONL redo log of every Put/Delete since
//
// Every mutation of an opened store appends one fsynced log record
// before it returns, so a SIGKILL at any point loses at most the record
// being written; replay drops a torn final line (internal/wal). Records
// are whole jobs (last write wins), which keeps replay trivial. When the
// log grows past compactEvery records the store rewrites the snapshot
// and truncates the log, bounding recovery time.
//
// Safe for concurrent use. Put and Get copy the record (Job.Clone), so
// callers may change their copy's fields freely; the payloads are shared
// and, as everywhere, replaced whole rather than written in place. Put
// is insert-or-replace keyed by Job.ID.
type Store struct {
	mu   sync.Mutex
	jobs map[string]*Job
	log  *wal.Log // nil for an in-memory store
}

const (
	snapName = "jobs.snap"
	walName  = "jobs.wal"
	// compactEvery bounds log replay: a checkpointed long job writes one
	// record per slice, so this is a few minutes of preemptions, not a
	// per-request cost.
	compactEvery = 256
)

// snapFile is the jobs.snap schema.
type snapFile struct {
	Schema string `json:"schema"`
	Jobs   []*Job `json:"jobs"`
}

// walRecord is one jobs.wal line: a full job (upsert) or a deletion.
type walRecord struct {
	Job    *Job   `json:"job,omitempty"`
	Delete string `json:"delete,omitempty"`
}

const snapSchema = "esd.jobs/v1"

// NewStore builds an empty in-memory store: the same semantics as an
// opened one, without durability.
func NewStore() *Store {
	return &Store{jobs: map[string]*Job{}}
}

// Open opens (creating if needed) the job store in dir, replays its
// snapshot and log, and folds them into a fresh snapshot, so recovery
// never inherits an unbounded log from the previous life.
func Open(dir string) (*Store, error) {
	s := NewStore()
	log, err := wal.Open(dir, snapName, walName, true, s.load, s.replay)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	s.log = log
	if err := s.compactLocked(); err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) load(data []byte) error {
	var snap snapFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("corrupt snapshot: %w", err)
	}
	if snap.Schema != snapSchema {
		return fmt.Errorf("snapshot has schema %q, want %q", snap.Schema, snapSchema)
	}
	for _, j := range snap.Jobs {
		if j == nil {
			return errors.New("corrupt snapshot: null job")
		}
		s.jobs[j.ID] = j
	}
	return nil
}

func (s *Store) replay(line []byte) bool {
	var rec walRecord
	if json.Unmarshal(line, &rec) != nil {
		return false
	}
	switch {
	case rec.Delete != "":
		delete(s.jobs, rec.Delete)
	case rec.Job != nil:
		s.jobs[rec.Job.ID] = rec.Job
	}
	return true
}

func (s *Store) Put(j *Job) error {
	j = j.Clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(walRecord{Job: j}); err != nil {
		return err
	}
	s.jobs[j.ID] = j
	return nil
}

func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.Clone(), true
}

// List returns every job, oldest first (ties by ID).
func (s *Store) List() []*Job {
	s.mu.Lock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.Clone())
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int {
		return cmp.Or(cmp.Compare(a.CreatedUnixMS, b.CreatedUnixMS), strings.Compare(a.ID, b.ID))
	})
	return out
}

// Len counts the jobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return nil
	}
	if err := s.appendLocked(walRecord{Delete: id}); err != nil {
		return err
	}
	delete(s.jobs, id)
	return nil
}

// Close closes an opened store's log; later mutations fail. It does
// nothing to an in-memory store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// appendLocked logs one record, compacting first when the log is full.
// Called with s.mu held.
func (s *Store) appendLocked(rec walRecord) error {
	if s.log == nil {
		return nil
	}
	if s.log.Lines() >= compactEvery {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding log record: %w", err)
	}
	if err := s.log.Append(line); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// compactLocked rewrites the snapshot from the in-memory state and starts
// a fresh log. Called with s.mu held.
func (s *Store) compactLocked() error {
	snap := snapFile{Schema: snapSchema, Jobs: make([]*Job, 0, len(s.jobs))}
	for _, j := range s.jobs {
		snap.Jobs = append(snap.Jobs, j)
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("jobs: encoding snapshot: %w", err)
	}
	if err := s.log.Compact(data); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}
