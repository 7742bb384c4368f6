// Package jobs is the durable job subsystem behind esdserve's /jobs API:
// a persistent job store (submit → job ID → poll / event stream / fetch
// result) plus a scheduler that runs syntheses in time slices, preempting
// long jobs into search checkpoints and requeueing them, so one slow
// synthesis cannot monopolize the service and an accepted job survives a
// process restart.
//
// The package splits into a Store (where job records live — in memory,
// or also in a snapshot plus log on disk for deployments) and a Manager
// (the worker pool and state machine). The Manager is deliberately
// ignorant of what a job does: the service supplies a Runner that
// interprets the job's request payload, runs one slice of it, and
// reports whether it finished, was preempted into a checkpoint, or
// failed.
//
// Job lifecycle:
//
//	queued → running → done | failed | cancelled
//	           ↓ (time slice expired: checkpoint persisted)
//	        checkpointed → running (resumed) → …
//
// Durability: every transition is persisted before it is published, so
// the store never claims more than what has happened. After a crash,
// jobs found "running" are demoted to their last checkpoint (or back to
// queued if they never completed a slice) and re-enqueued — work since
// the last persisted checkpoint is repeated, never lost, and the
// determinism contract makes the repeat byte-identical. Synchronous jobs
// (Job.Sync) are deleted instead: their waiter died with the process.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"slices"
	"time"
)

// State is a job's position in the lifecycle.
type State string

const (
	// StateQueued: accepted, waiting for a worker (fresh or recovered).
	StateQueued State = "queued"
	// StateRunning: a worker is executing a slice of it right now.
	StateRunning State = "running"
	// StateCheckpointed: preempted mid-search; the persisted checkpoint is
	// the job's entire progress, and the job is queued for another slice.
	StateCheckpointed State = "checkpointed"
	// StateDone: finished; Result holds the outcome payload.
	StateDone State = "done"
	// StateFailed: the runner returned an error; Error holds it.
	StateFailed State = "failed"
	// StateCancelled: withdrawn by the caller before completion.
	StateCancelled State = "cancelled"
)

// States lists every job state, in lifecycle order — the iteration order
// of depth maps and metrics exposition.
var States = []State{StateQueued, StateRunning, StateCheckpointed, StateDone, StateFailed, StateCancelled}

// Terminal reports whether the state is final (no worker will touch the
// job again).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one unit of durable work. The Request payload is opaque to this
// package (the service stores its wire request); Checkpoint is the
// serialized search of a preempted job, also opaque here.
//
// Request, Result and Checkpoint are never written in place: a holder
// that changes one assigns a new slice. Copies of a Job (Clone) therefore
// share those payloads instead of copying them, which keeps a parked
// job's checkpoint (tens of MB) from being copied on every store access.
type Job struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Request is the submitter's payload, replayed to the Runner on every
	// slice (including post-restart resumes).
	Request json.RawMessage `json:"request,omitempty"`
	// Result is the runner's final payload (done jobs only).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure message (failed jobs only).
	Error string `json:"error,omitempty"`
	// Checkpoint is the serialized search of a preempted job — the exact
	// bytes handed back by the runner, re-supplied on resume.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// Sync marks a job whose submitter waits on it in-process and deletes
	// it once it ends (the service's synchronous endpoints). Should the
	// process die first, nobody is left to read its result, so recovery
	// deletes it instead of running it.
	Sync bool `json:"sync,omitempty"`

	CreatedUnixMS int64 `json:"created_unix_ms"`
	UpdatedUnixMS int64 `json:"updated_unix_ms"`

	// Resumes counts slices that started from a checkpoint (including
	// post-restart recovery); Preemptions counts slices that ended in one.
	Resumes     int `json:"resumes,omitempty"`
	Preemptions int `json:"preemptions,omitempty"`
	// CheckpointBytes and CheckpointNS describe the latest checkpoint:
	// its encoded size and the wall-clock cost of building it.
	CheckpointBytes int   `json:"checkpoint_bytes,omitempty"`
	CheckpointNS    int64 `json:"checkpoint_ns,omitempty"`
	// PeakInternerBytes is the largest process interner footprint observed
	// at any of this job's slice boundaries; SolverWallNS is cumulative
	// wall-clock spent in the solver across all slices.
	PeakInternerBytes int64 `json:"peak_interner_bytes,omitempty"`
	SolverWallNS      int64 `json:"solver_wall_ns,omitempty"`
}

// Clone copies the job record. The payloads are shared, not copied (see
// Job), with their capacity clipped, so an append to a copy's payload
// allocates a new array rather than writing into the shared one.
func (j *Job) Clone() *Job {
	c := *j
	c.Request = slices.Clip(j.Request)
	c.Result = slices.Clip(j.Result)
	c.Checkpoint = slices.Clip(j.Checkpoint)
	return &c
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// time-derived ID rather than refusing all submissions.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))[:16]
	}
	return hex.EncodeToString(b[:])
}
