package telemetry

import "encoding/json"

// This file implements the per-synthesis flight recorder: a ring-buffered
// structured trace of phase transitions and sampled frontier snapshots,
// plus the Report that packages the trace with the run's summary counters.
//
// Determinism contract: every event field is derived from deterministic
// search state (step counts, pick counts, frontier sizes, distances) — no
// wall-clock values, no cache-hit counts (a warm solver changes
// those), no map-iteration artifacts. Two runs of the same synthesis with
// the same seed therefore produce byte-identical DeterministicJSON, which
// the golden double-replay tests assert. Everything wall-clock lives in
// the Report's Wall section and is stripped by DeterministicJSON.

// Event kinds.
const (
	EventPhase    = "phase"    // pipeline phase transition
	EventFrontier = "frontier" // sampled frontier snapshot
	EventShed     = "shed"     // state-pool overflow shed
	EventFound    = "found"    // goal state matched the report
)

// Event is one flight-recorder entry. All fields are deterministic under
// strict replay (see the file comment).
type Event struct {
	// Seq is the event's global sequence number, counting dropped events
	// too (so gaps in a clipped trace are visible).
	Seq int `json:"seq"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// Phase is the pipeline stage name for EventPhase events.
	Phase string `json:"phase,omitempty"`
	// Steps and States are the VM's cumulative work counters at the event.
	Steps  int64 `json:"steps"`
	States int64 `json:"states,omitempty"`
	// Live is the frontier size (live states in the pool).
	Live int `json:"live,omitempty"`
	// Depth is the deepest path explored so far, in executed instructions.
	Depth int64 `json:"depth,omitempty"`
	// BestDist is the lowest combined goal fitness scored so far.
	BestDist int64 `json:"best_dist,omitempty"`
	// SolverQueries counts this run's satisfiability queries so far.
	SolverQueries int64 `json:"solver_queries,omitempty"`
}

// DefaultRecorderCap bounds the ring buffer: a multi-minute ls4 search
// samples thousands of frontier snapshots, and the recorder keeps the most
// recent window (the part that explains how the run ended) plus an exact
// count of what it dropped.
const DefaultRecorderCap = 512

// Recorder is a per-synthesis ring-buffered trace. It is not safe for
// concurrent use: exactly one search goroutine feeds it (the search loop
// is single-threaded per synthesis). A nil Recorder is a valid no-op
// receiver, which is what makes the disabled path near-zero cost — call
// sites record unconditionally and the nil check is the entire overhead.
type Recorder struct {
	cap     int
	events  []Event
	start   int // ring head (index of the oldest event)
	seq     int
	dropped int
}

// NewRecorder returns a Recorder keeping the most recent capacity events
// (0 means DefaultRecorderCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{cap: capacity}
}

// Record appends one event, evicting the oldest when full.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	ev.Seq = r.seq
	r.seq++
	if len(r.events) < r.cap {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.start] = ev
	r.start = (r.start + 1) % r.cap
	r.dropped++
}

// Phase records a pipeline phase transition.
func (r *Recorder) Phase(phase string, steps, states int64) {
	r.Record(Event{Kind: EventPhase, Phase: phase, Steps: steps, States: states})
}

// Events returns the retained events in order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Dropped returns how many events the ring evicted.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// RecorderState is a Recorder's serializable snapshot, captured when a
// search is checkpointed and restored on resume so the resumed run's trace
// is byte-identical to an uninterrupted run's (same events, same sequence
// numbers, same drop count).
type RecorderState struct {
	Cap     int     `json:"cap"`
	Events  []Event `json:"events,omitempty"` // oldest first
	Seq     int     `json:"seq"`
	Dropped int     `json:"dropped"`
}

// Snapshot captures the recorder's current contents (nil receiver → nil).
func (r *Recorder) Snapshot() *RecorderState {
	if r == nil {
		return nil
	}
	return &RecorderState{Cap: r.cap, Events: r.Events(), Seq: r.seq, Dropped: r.dropped}
}

// Restore overwrites the recorder's contents with a snapshot. The ring is
// normalized (oldest event at index 0), which is invisible to Record and
// Events: eviction order and sequence numbering continue exactly as they
// would have in the snapshotted recorder.
func (r *Recorder) Restore(st *RecorderState) {
	if r == nil || st == nil {
		return
	}
	if st.Cap > 0 {
		r.cap = st.Cap
	}
	r.events = append([]Event(nil), st.Events...)
	r.start = 0
	r.seq = st.Seq
	r.dropped = st.Dropped
}

// SolverStats is the solver's share of a synthesis (deterministic parts).
type SolverStats struct {
	// Queries counts satisfiability queries issued by this run.
	Queries int64 `json:"queries"`
	// Concretizations counts VM term-pinning operations.
	Concretizations int64 `json:"concretizations"`
}

// WallStats is the nondeterministic section of a Report: wall-clock
// attribution and cache effectiveness (both vary run to run — cache hits
// depend on how warm the solver is). DeterministicJSON strips it.
type WallStats struct {
	// TotalNS is the end-to-end synthesis wall time; SearchNS is the
	// search loop's share excluding solver calls; SolverNS is wall time
	// answering solver queries during the search; SolveNS is the final
	// path-concretization (PhaseSolve) wall time. TotalNS ≈ SearchNS +
	// SolverNS + SolveNS (the remainder is analysis and bookkeeping).
	TotalNS  int64 `json:"total_ns"`
	SearchNS int64 `json:"search_ns"`
	SolverNS int64 `json:"solver_ns"`
	SolveNS  int64 `json:"solve_ns"`
	// SolverCacheHits counts components answered by the solver's private
	// memo (warm-solver dependent).
	SolverCacheHits int64 `json:"solver_cache_hits"`
	// SolverSharedHits is always 0, so JSON omits it: the solver tier it
	// counted is gone. The field stays because the benchmark harness
	// (perfbench) reads it.
	SolverSharedHits int64 `json:"solver_shared_hits,omitempty"`
	// SolverPersistentHits counts component verdicts served from the
	// cross-run persistent cache; SolverVerifyRejects counts persistent
	// entries whose model failed re-verification against the live terms
	// and were re-solved. Both depend on how warm the cache directory is
	// (a cold run reports zeros), hence Wall-section only — which is what
	// keeps a persistent-warm run's DeterministicJSON byte-identical to a
	// cold run's.
	SolverPersistentHits int64 `json:"solver_persistent_hits,omitempty"`
	SolverVerifyRejects  int64 `json:"solver_verify_rejects,omitempty"`
	// Workers attributes wall time and work per frontier-parallel worker
	// (absent for sequential runs). Everything here depends on the OS
	// scheduler's interleaving, which is why the rows live in the
	// stripped Wall section rather than the deterministic body.
	Workers []WorkerWall `json:"workers,omitempty"`
}

// WorkerWall is one frontier-parallel worker's wall attribution row.
type WorkerWall struct {
	// Worker is the worker index (0..n-1).
	Worker int `json:"worker"`
	// Steps and States are the worker's VM work counters.
	Steps  int64 `json:"steps"`
	States int64 `json:"states"`
	// Picks counts frontier states this worker ran.
	Picks int64 `json:"picks"`
	// BusyNS is wall time the worker spent executing quanta (the rest of
	// its life was stealing scans and blocked idle waits).
	BusyNS int64 `json:"busy_ns"`
	// SolverNS is the worker's wall time answering solver queries.
	SolverNS int64 `json:"solver_ns"`
	// Found reports whether this worker reached the goal first.
	Found bool `json:"found,omitempty"`
}

// Report is the per-synthesis flight-recorder report attached to
// esd.Result when telemetry is enabled: the run's summary counters plus
// the retained event trace. JSON marshals everything; DeterministicJSON
// strips the wall-clock section so golden double-replay comparisons are
// byte-exact.
type Report struct {
	// Schema versions the report layout for external consumers.
	Schema string `json:"schema"`
	// Outcome is found | preempted | cancelled | timeout (the run
	// context's deadline passed) | step_cap (the instruction cap ran out)
	// | incomplete (the frontier ran dry after states were shed, so the
	// space was not exhausted) | exhausted.
	Outcome string `json:"outcome"`
	// Strategy and Seed identify the search configuration.
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	// GoalQueues is the number of virtual goal queues (intermediate +
	// final) the search ran with.
	GoalQueues int `json:"goal_queues"`
	// Parallelism is the frontier-worker count when the run was
	// frontier-parallel (omitted for sequential runs, so an n=1 report
	// stays byte-identical to the historical layout).
	Parallelism int `json:"parallelism,omitempty"`
	// DedupDrops counts forks dropped by the cross-worker dedup set
	// (frontier-parallel runs only; omitted when zero).
	DedupDrops int64 `json:"dedup_drops,omitempty"`
	// Steps, States, and MaxDepth are the VM work totals.
	Steps    int64 `json:"steps"`
	States   int64 `json:"states"`
	MaxDepth int64 `json:"max_depth"`
	// Forks splits state forks by kind: branch (symbolic branches), sched
	// (scheduling-policy forks), eager (deadlock pre-acquisition), snapshot
	// (K_S snapshots taken), snapshot_activation (rollbacks activated).
	// encoding/json sorts map keys, so the marshaling is deterministic.
	Forks map[string]int64 `json:"forks,omitempty"`
	// AgingPicks counts FIFO aging picks (the anti-starvation quarter).
	AgingPicks int64 `json:"aging_picks"`
	// Pruned splits abandoned states by gate: critical_edge (block-level
	// reachability) and infinite_distance (instruction-granular proof).
	Pruned map[string]int64 `json:"pruned,omitempty"`
	// Sheds counts state-pool overflow evictions.
	Sheds int64 `json:"sheds"`
	// Solver is the solver's deterministic share of the run.
	Solver SolverStats `json:"solver"`
	// Trace is the retained event ring; TraceDropped counts evictions.
	Trace        []Event `json:"trace"`
	TraceDropped int     `json:"trace_dropped"`
	// Wall is the nondeterministic wall-clock/cache section (omitted from
	// DeterministicJSON).
	Wall *WallStats `json:"wall,omitempty"`
}

// ReportSchema is the current Report.Schema value.
const ReportSchema = "esd.flight/v1"

// JSON marshals the full report, wall-clock section included.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DeterministicJSON marshals the report without its wall-clock section:
// two runs of the same synthesis with the same seed produce byte-identical
// output (the golden double-replay invariant).
func (r *Report) DeterministicJSON() ([]byte, error) {
	clone := *r
	clone.Wall = nil
	return json.MarshalIndent(&clone, "", "  ")
}
