package search

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"esd/internal/mir"
	"esd/internal/race"
	"esd/internal/sched"
	"esd/internal/symex"
	"esd/internal/telemetry"
)

// This file makes a sequential search preemptible and resumable: at the
// top of the run loop (never mid-quantum) the searcher can be asked to
// stop and serialize everything its future behavior depends on — the
// frontier structures verbatim, the state graph, the VM's allocators, the
// RNG draw count, and every counter that feeds the final Result. Resuming
// replays none of the work: the loop continues from the exact iteration
// it would have run next, which is what makes a preempted-and-resumed
// run's DeterministicJSON byte-identical to an uninterrupted one.
//
// The frontier is serialized structurally, not semantically: a live state
// re-inserted after a quantum leaves its older heap entries behind (lazy
// deletion), so its effective priority is the minimum over all keys it
// was ever inserted with while it stays live. Re-scoring on resume would
// erase that history and diverge. Heap entries are therefore recorded
// as (state, fit) pairs per queue; dead entries are dropped (a state not
// live at the loop top can never become live again, and discarding a
// dead entry consumes no randomness), except in the DFS/RandomPath pool,
// where slice *length* feeds rng.Intn — dead pool slots are kept as
// explicit tombstones so the resumed draw sequence matches.

// CheckpointSchema versions the checkpoint layout.
const CheckpointSchema = "esd.checkpoint/v1"

// HeapSlot is one serialized virtual-queue heap entry: a root index and
// the fitness it was inserted with (the entry's ID tie-break is the
// state's own ID).
type HeapSlot struct {
	S int   `json:"s"`
	F int64 `json:"f"`
}

// poolTombstone marks a dead DFS/RandomPath pool slot in PoolOrder.
const poolTombstone = -1

// Checkpoint is a preempted sequential search, serialized. It captures
// the run's identity (program fingerprint, goals, options that steer the
// search), the full live-state graph, the frontier structures verbatim,
// and the cumulative counters, so ResumeFrom continues the run as if it
// had never stopped — in the same process or a different one.
type Checkpoint struct {
	Schema      string `json:"schema"`
	Fingerprint uint64 `json:"fingerprint"`

	// Identity: a resume must run the same search. Budget deliberately
	// absent — it bounds wall clock, which is outside the deterministic
	// body, and a resuming caller may lengthen it. Quantum and MaxStates
	// record the search's fixed quantum and live-state cap.
	Strategy        Strategy  `json:"strategy"`
	Seed            int64     `json:"seed"`
	Quantum         int       `json:"quantum"`
	MaxStates       int       `json:"max_states"`
	MaxSteps        int64     `json:"max_steps"`
	PreemptionBound int       `json:"preemption_bound,omitempty"`
	WithRace        bool      `json:"with_race,omitempty"`
	Ablate          Ablate    `json:"ablate,omitempty"`
	Goals           []mir.Loc `json:"goals"`
	NumQueues       int       `json:"num_queues"`

	// Progress: cumulative wall time consumed and RNG draws made.
	ElapsedNS int64 `json:"elapsed_ns"`
	RngDraws  int64 `json:"rng_draws"`

	// VM: cumulative engine stats and the allocator counters a resumed
	// engine must continue exactly (state IDs are the search's
	// deterministic tie-break; object IDs name memory inside states).
	// Older checkpoints carry two more VM counters (the context-poll
	// phase and an interner check count), which decoding ignores.
	EngStats    symex.Stats `json:"eng_stats"`
	NextStateID int         `json:"next_state_id"`
	NextObjID   int         `json:"next_obj_id"`

	// Searcher bookkeeping.
	AllPicks   int   `json:"all_picks"`
	FrontPicks int   `json:"front_picks"`
	AgingPicks int64 `json:"aging_picks"`
	Sheds      int64 `json:"sheds"`
	MaxDepth   int64 `json:"max_depth"`
	BestFit    int64 `json:"best_fit"`

	// Frontier: the state graph plus the queue structures verbatim.
	// Pool.Roots lists the live states sorted by ID; AliveKeys carries
	// each root's current per-queue fitness (ESD only); Heaps, FIFO, and
	// PoolOrder reference roots by position.
	Pool      *symex.Pool  `json:"pool"`
	AliveKeys [][]int64    `json:"alive_keys,omitempty"`
	Heaps     [][]HeapSlot `json:"heaps,omitempty"`
	FIFO      []int        `json:"fifo,omitempty"`
	PoolOrder []int        `json:"pool_order,omitempty"`

	// Result accumulators restored into the resumed run's Result.
	Terminals      map[symex.StateStatus]int64 `json:"terminals,omitempty"`
	OtherBugs      []string                    `json:"other_bugs,omitempty"`
	StepErrors     int64                       `json:"step_errors,omitempty"`
	PrunedCritical int64                       `json:"pruned_critical,omitempty"`
	PrunedInfinite int64                       `json:"pruned_infinite,omitempty"`

	// Solver share consumed so far (query count is deterministic; the
	// hit/wall numbers only keep the cumulative Result honest). Older
	// checkpoints also carry a shared-hit count, always 0 since only
	// sequential runs checkpoint, which decoding ignores.
	SolverQueries int   `json:"solver_queries"`
	SolverHits    int   `json:"solver_hits"`
	SolverWallNS  int64 `json:"solver_wall_ns"`
	// Persistent-tier consumption (additive fields: checkpoints written
	// before the tier existed decode as 0, which is correct — they
	// consumed none).
	SolverPersistentHits int `json:"solver_persistent_hits,omitempty"`
	SolverVerifyRejects  int `json:"solver_verify_rejects,omitempty"`

	// Cross-cutting mutable collaborators.
	Recorder *telemetry.RecorderState `json:"recorder,omitempty"`
	Race     *race.DetectorState      `json:"race,omitempty"`

	// Scheduling-policy stats counters (decisions gate on per-state
	// marks, so counters are all a policy needs restored).
	PolSnapshotsTaken     int `json:"pol_snapshots_taken,omitempty"`
	PolSnapshotsActivated int `json:"pol_snapshots_activated,omitempty"`
	PolEagerForks         int `json:"pol_eager_forks,omitempty"`
	PolPreemptions        int `json:"pol_preemptions,omitempty"`
}

// Encode marshals the checkpoint.
func (ck *Checkpoint) Encode() ([]byte, error) {
	return json.Marshal(ck)
}

// DecodeCheckpoint unmarshals a checkpoint produced by Encode.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("search: decoding checkpoint: %w", err)
	}
	if ck.Schema != CheckpointSchema {
		return nil, fmt.Errorf("search: unsupported checkpoint schema %q (want %q)", ck.Schema, CheckpointSchema)
	}
	if ck.Pool == nil {
		return nil, fmt.Errorf("search: checkpoint has no state pool")
	}
	return ck, nil
}

// compatible rejects a resume whose program or options would not replay
// the checkpointed search (called before the plan exists; worker.resume
// checks the race detector and the plan-derived layout).
func (ck *Checkpoint) compatible(prog *mir.Program, opts Options) error {
	if ck.Schema != CheckpointSchema {
		return fmt.Errorf("search: unsupported checkpoint schema %q", ck.Schema)
	}
	if fp := prog.Fingerprint(); fp != ck.Fingerprint {
		return fmt.Errorf("search: checkpoint is for program fingerprint %x, not %x", ck.Fingerprint, fp)
	}
	if ck.Strategy != opts.Strategy || ck.Seed != opts.Seed ||
		ck.Quantum != quantumSteps || ck.MaxStates != maxLiveStates ||
		ck.MaxSteps != opts.MaxSteps || ck.PreemptionBound != opts.PreemptionBound ||
		ck.Ablate != opts.Ablate {
		return fmt.Errorf("search: checkpoint options do not match the resume request")
	}
	return nil
}

// validatePlan rejects a resume whose goal/queue layout diverged from the
// checkpointed one (a changed report on an unchanged program).
func (ck *Checkpoint) validatePlan(pl *plan) error {
	if len(ck.Goals) != len(pl.goals) {
		return fmt.Errorf("search: checkpoint has %d goals, report has %d", len(ck.Goals), len(pl.goals))
	}
	for i, g := range ck.Goals {
		if g != pl.goals[i] {
			return fmt.Errorf("search: checkpoint goal %d is %v, report has %v", i, g, pl.goals[i])
		}
	}
	if ck.NumQueues != len(pl.queueGoals) {
		return fmt.Errorf("search: checkpoint has %d virtual queues, plan has %d", ck.NumQueues, len(pl.queueGoals))
	}
	return nil
}

// countingSource wraps a rand.Source and counts Int63 draws so a
// checkpoint can record the RNG position and a resume can replay to it.
// It deliberately does not implement rand.Source64: every draw then
// funnels through Int63, making the count exact. The search only uses
// rand.Intn with small bounds, whose draw sequence is Int63-only either
// way, so wrapping changes no picks.
type countingSource struct {
	src   rand.Source
	draws int64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// skip advances the source by n draws (resume replay). n comes from a
// checkpoint, so the replay polls ctx and gives up once it is done: a
// corrupt draw count cannot pin the resuming goroutine.
func (c *countingSource) skip(ctx context.Context, n int64) error {
	for i := int64(0); i < n; i++ {
		if i%(1<<16) == 0 && ctx.Err() != nil {
			return fmt.Errorf("search: replaying %d rng draws: %w", n, ctx.Err())
		}
		c.Int63()
	}
	return nil
}

// buildCheckpoint serializes the searcher at the run-loop top. res must
// already hold the run's cumulative counters (runSequential folds the
// worker first), and detector is the run's race detector (nil when
// detection is off).
func (s *searcher) buildCheckpoint(res *Result, detector *race.Detector) (*Checkpoint, error) {
	roots := make([]*symex.State, 0, len(s.front.alive))
	for _, ls := range s.front.alive {
		roots = append(roots, ls.st)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	idx := make(map[int]int, len(roots)) // state ID -> root index
	for i, st := range roots {
		idx[st.ID] = i
	}

	nextStateID, nextObjID := s.eng.CheckpointCounters()
	ck := &Checkpoint{
		Schema:      CheckpointSchema,
		Fingerprint: s.prog.Fingerprint(),

		Strategy:        s.opts.Strategy,
		Seed:            s.opts.Seed,
		Quantum:         quantumSteps,
		MaxStates:       maxLiveStates,
		MaxSteps:        s.opts.MaxSteps,
		PreemptionBound: s.opts.PreemptionBound,
		WithRace:        detector != nil,
		Ablate:          s.opts.Ablate,
		Goals:           s.finalGoals,
		NumQueues:       len(s.queueGoals),

		ElapsedNS: res.Duration.Nanoseconds(),
		RngDraws:  s.rngSrc.draws,

		EngStats:    s.eng.Stats,
		NextStateID: nextStateID,
		NextObjID:   nextObjID,

		AllPicks:   s.allPicks,
		FrontPicks: s.front.picks,
		AgingPicks: s.agingPicks,
		Sheds:      s.sheds,
		MaxDepth:   s.maxDepth,
		BestFit:    s.bestFit,

		Pool: symex.EncodePool(roots),

		Terminals:      res.Terminals,
		OtherBugs:      res.OtherBugs,
		StepErrors:     res.StepErrors,
		PrunedCritical: res.PrunedCritical,
		PrunedInfinite: res.PrunedInfinite,

		SolverQueries:        res.SolverQueries,
		SolverHits:           res.SolverHits,
		SolverWallNS:         res.SolverWallNanos,
		SolverPersistentHits: res.SolverPersistentHits,
		SolverVerifyRejects:  res.SolverVerifyRejects,

		Recorder: s.opts.Recorder.Snapshot(),
		Race:     detector.Snapshot(),
	}
	if s.opts.Strategy == StrategyESD {
		ck.AliveKeys = make([][]int64, len(roots))
		for i, st := range roots {
			keys := s.front.alive[st.ID].keys
			fits := make([]int64, len(keys))
			for q, k := range keys {
				fits[q] = k.fit
			}
			ck.AliveKeys[i] = fits
		}
		ck.Heaps = make([][]HeapSlot, len(s.front.heaps))
		for q, h := range s.front.heaps {
			for _, k := range h {
				if i, live := idx[k.id]; live {
					ck.Heaps[q] = append(ck.Heaps[q], HeapSlot{S: i, F: k.fit})
				}
			}
		}
		for _, id := range s.front.fifo {
			if i, live := idx[id]; live {
				ck.FIFO = append(ck.FIFO, i)
			}
		}
	} else {
		for _, st := range s.front.pool {
			if i, live := idx[st.ID]; live {
				ck.PoolOrder = append(ck.PoolOrder, i)
			} else {
				// Dead slots stay: RandomPath draws rng.Intn(len(pool)),
				// so the slice length is part of the deterministic replay.
				ck.PoolOrder = append(ck.PoolOrder, poolTombstone)
			}
		}
	}

	switch p := s.eng.Policy.(type) {
	case *sched.DeadlockPolicy:
		ck.PolSnapshotsTaken = p.SnapshotsTaken
		ck.PolSnapshotsActivated = p.SnapshotsActivated
		ck.PolEagerForks = p.EagerForks
	case *sched.RacePolicy:
		ck.PolPreemptions = p.Preemptions
	case *sched.BoundedPolicy:
		ck.PolPreemptions = p.Preemptions
	}
	return ck, nil
}

// restore rebuilds the searcher from a checkpoint: VM counters, RNG
// position, frontier structures, and collaborator state. roots is the
// decoded Pool.Roots slice. Called instead of run's fresh-frontier setup;
// the caller then enters runLoop directly.
func (s *searcher) restore(ck *Checkpoint, roots []*symex.State, detector *race.Detector) error {
	if len(roots) != len(ck.Pool.Roots) {
		return fmt.Errorf("search: checkpoint decoded %d roots, expected %d", len(roots), len(ck.Pool.Roots))
	}
	if ck.RngDraws < 0 {
		return fmt.Errorf("search: checkpoint has %d rng draws", ck.RngDraws)
	}
	s.eng.Stats = ck.EngStats
	s.eng.RestoreCounters(ck.NextStateID, ck.NextObjID)
	if err := s.rngSrc.skip(s.ctx, ck.RngDraws); err != nil {
		return err
	}
	s.allPicks = ck.AllPicks
	s.agingPicks = ck.AgingPicks
	s.sheds = ck.Sheds
	s.maxDepth = ck.MaxDepth
	s.bestFit = ck.BestFit

	detector.Restore(ck.Race)
	switch p := s.eng.Policy.(type) {
	case *sched.DeadlockPolicy:
		p.SnapshotsTaken = ck.PolSnapshotsTaken
		p.SnapshotsActivated = ck.PolSnapshotsActivated
		p.EagerForks = ck.PolEagerForks
	case *sched.RacePolicy:
		p.Preemptions = ck.PolPreemptions
	case *sched.BoundedPolicy:
		p.Preemptions = ck.PolPreemptions
	}

	s.front = newQueueFrontier(s.opts.Strategy, s.schedGuided, len(s.queueGoals))
	s.front.picks = ck.FrontPicks
	for _, st := range roots {
		if _, dup := s.front.alive[st.ID]; dup {
			return fmt.Errorf("search: checkpoint has two roots with state ID %d", st.ID)
		}
		s.front.alive[st.ID] = liveState{st: st}
	}
	if s.opts.Strategy == StrategyESD {
		if len(ck.AliveKeys) != len(roots) {
			return fmt.Errorf("search: checkpoint has %d key rows for %d roots", len(ck.AliveKeys), len(roots))
		}
		if len(ck.Heaps) != len(s.front.heaps) {
			return fmt.Errorf("search: checkpoint has %d heaps, frontier has %d", len(ck.Heaps), len(s.front.heaps))
		}
		for i, st := range roots {
			fits := ck.AliveKeys[i]
			if len(fits) != len(s.queueGoals) {
				return fmt.Errorf("search: root %d has %d queue keys, want %d", i, len(fits), len(s.queueGoals))
			}
			keys := make([]esdKey, len(fits))
			for q, fit := range fits {
				keys[q] = esdKey{fit: fit, id: st.ID}
			}
			// Direct alive/heaps assembly (not insert): the heap contents
			// below carry the lazy-deletion history insert would not
			// recreate.
			s.front.alive[st.ID] = liveState{st: st, keys: keys}
		}
		for q, slots := range ck.Heaps {
			for _, sl := range slots {
				if sl.S < 0 || sl.S >= len(roots) {
					return fmt.Errorf("search: heap %d references invalid root %d", q, sl.S)
				}
				s.front.heaps[q].push(esdKey{fit: sl.F, id: roots[sl.S].ID})
			}
		}
		for _, ri := range ck.FIFO {
			if ri < 0 || ri >= len(roots) {
				return fmt.Errorf("search: fifo references invalid root %d", ri)
			}
			s.front.fifo = append(s.front.fifo, roots[ri].ID)
		}
	} else {
		// One shared tombstone stands in for every dead slot: the pool is
		// compacted positionally and the tombstone's ID is never in alive,
		// so it replays a dead slot's behavior (one discarded draw)
		// exactly.
		tombstone := &symex.State{ID: -1}
		for _, ri := range ck.PoolOrder {
			switch {
			case ri == poolTombstone:
				s.front.pool = append(s.front.pool, tombstone)
			case ri >= 0 && ri < len(roots):
				s.front.pool = append(s.front.pool, roots[ri])
			default:
				return fmt.Errorf("search: pool references invalid root %d", ri)
			}
		}
	}
	return nil
}

// resume restores a fresh sequential worker from a checkpoint that
// compatible accepted: the race-detector setting and the plan layout must
// match the checkpointed run's, then the state pool is decoded, the
// searcher restored and the worker's accumulators seeded. The detector
// is checked here, not in compatible, because a race report turns it on
// whatever the options say.
func (w *worker) resume(ck *Checkpoint, pl *plan) error {
	if on := w.det != nil; ck.WithRace != on {
		return fmt.Errorf("search: checkpoint race detection is %v, the resume request's is %v", ck.WithRace, on)
	}
	if err := ck.validatePlan(pl); err != nil {
		return err
	}
	roots, err := ck.Pool.Decode(pl.prog)
	if err != nil {
		return err
	}
	if err := w.s.restore(ck, roots, w.det); err != nil {
		return err
	}
	ck.restoreWorker(w)
	return nil
}

// restoreWorker seeds a resumed worker's accumulators with the
// checkpoint's and shifts its solver baselines by the checkpointed
// consumption, so the folded Result and the progress events stay
// cumulative across the chain.
func (ck *Checkpoint) restoreWorker(w *worker) {
	for k, v := range ck.Terminals {
		w.res.Terminals[k] = v
	}
	w.res.OtherBugs = append([]string(nil), ck.OtherBugs...)
	w.res.StepErrors = ck.StepErrors
	w.res.PrunedCritical = ck.PrunedCritical
	w.res.PrunedInfinite = ck.PrunedInfinite
	w.s.solBase -= ck.SolverQueries
	w.base.hits -= ck.SolverHits
	w.base.persist -= ck.SolverPersistentHits
	w.base.rejects -= ck.SolverVerifyRejects
	w.base.wallNS -= ck.SolverWallNS
}

// flushDelta returns a copy of res with the checkpoint's share of the
// counters removed, so a resumed segment flushes only its own work into
// the process-wide telemetry registry (the preempted segments already
// flushed theirs).
func (ck *Checkpoint) flushDelta(res *Result) *Result {
	d := *res
	d.Steps -= ck.EngStats.Steps
	d.StatesCreated -= ck.EngStats.States
	d.Concretizations -= ck.EngStats.Concretizations
	d.BranchForks -= ck.EngStats.BranchForks
	d.SchedForks -= ck.EngStats.SchedForks
	d.EagerForks -= ck.PolEagerForks
	d.SnapshotsTaken -= ck.PolSnapshotsTaken
	d.SnapshotsActivated -= ck.PolSnapshotsActivated
	d.AgingPicks -= ck.AgingPicks
	d.PrunedCritical -= ck.PrunedCritical
	d.PrunedInfinite -= ck.PrunedInfinite
	d.Sheds -= ck.Sheds
	d.Duration -= time.Duration(ck.ElapsedNS)
	return &d
}
