package search

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"time"

	"esd/internal/jsonx"
	"esd/internal/mir"
	"esd/internal/race"
	"esd/internal/sched"
	"esd/internal/symex"
	"esd/internal/telemetry"
)

// This file makes a sequential search preemptible and resumable: at the
// top of the run loop (never mid-quantum) the worker can be asked to
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
//
// The JSON is written and read by hand, one pass each way, from one table
// of the fields (fields): the bytes are what json.Marshal writes for a
// Checkpoint, and DecodeCheckpoint accepts nothing json.Unmarshal would
// decode differently. The state pool is symex's (symex.Pool); a preempted
// search writes it straight into the checkpoint from the live states.

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
	// The pool's roots are the live states sorted by ID; AliveKeys carries
	// each root's current per-queue fitness (ESD only); Heaps, FIFO, and
	// PoolOrder reference roots by position.
	Pool      symex.Pool   `json:"pool"`
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

	// Deadlock-policy counters: decisions gate on per-state marks, so they
	// are all it needs restored (older pol_preemptions keys are ignored).
	PolSnapshotsTaken     int `json:"pol_snapshots_taken,omitempty"`
	PolSnapshotsActivated int `json:"pol_snapshots_activated,omitempty"`
	PolEagerForks         int `json:"pol_eager_forks,omitempty"`
}

// ckField is one Checkpoint field as its JSON codec sees it: the key, a
// pointer to the field, and whether omitempty drops it when empty.
type ckField struct {
	key  string
	ptr  any
	omit bool
}

// fields lists ck's fields in struct order, as encoding/json writes them.
func (ck *Checkpoint) fields() []ckField {
	return []ckField{
		{"schema", &ck.Schema, false}, {"fingerprint", &ck.Fingerprint, false},
		{"strategy", &ck.Strategy, false}, {"seed", &ck.Seed, false},
		{"quantum", &ck.Quantum, false}, {"max_states", &ck.MaxStates, false},
		{"max_steps", &ck.MaxSteps, false}, {"preemption_bound", &ck.PreemptionBound, true},
		{"with_race", &ck.WithRace, true}, {"ablate", &ck.Ablate, false},
		{"goals", &ck.Goals, false}, {"num_queues", &ck.NumQueues, false},
		{"elapsed_ns", &ck.ElapsedNS, false}, {"rng_draws", &ck.RngDraws, false},
		{"eng_stats", &ck.EngStats, false}, {"next_state_id", &ck.NextStateID, false},
		{"next_obj_id", &ck.NextObjID, false}, {"all_picks", &ck.AllPicks, false},
		{"front_picks", &ck.FrontPicks, false}, {"aging_picks", &ck.AgingPicks, false},
		{"sheds", &ck.Sheds, false}, {"max_depth", &ck.MaxDepth, false},
		{"best_fit", &ck.BestFit, false}, {"pool", &ck.Pool, false},
		{"alive_keys", &ck.AliveKeys, true}, {"heaps", &ck.Heaps, true},
		{"fifo", &ck.FIFO, true}, {"pool_order", &ck.PoolOrder, true},
		{"terminals", &ck.Terminals, true}, {"other_bugs", &ck.OtherBugs, true},
		{"step_errors", &ck.StepErrors, true}, {"pruned_critical", &ck.PrunedCritical, true},
		{"pruned_infinite", &ck.PrunedInfinite, true}, {"solver_queries", &ck.SolverQueries, false},
		{"solver_hits", &ck.SolverHits, false}, {"solver_wall_ns", &ck.SolverWallNS, false},
		{"solver_persistent_hits", &ck.SolverPersistentHits, true},
		{"solver_verify_rejects", &ck.SolverVerifyRejects, true},
		{"recorder", &ck.Recorder, true}, {"race", &ck.Race, true},
		{"pol_snapshots_taken", &ck.PolSnapshotsTaken, true},
		{"pol_snapshots_activated", &ck.PolSnapshotsActivated, true},
		{"pol_eager_forks", &ck.PolEagerForks, true},
	}
}

// checkpointKeys are the keys of fields, in order.
var checkpointKeys = func() []string {
	var keys []string
	for _, f := range new(Checkpoint).fields() {
		keys = append(keys, f.key)
	}
	return keys
}()

var heapSlotKeys = []string{"s", "f"}

// Encode writes the checkpoint as JSON, byte for byte what json.Marshal
// writes for it, in one pass: the pool goes in as it is, and only small
// bounded fields (ablation, goals, engine stats, terminals, other bugs,
// recorder and race-detector snapshots) go through encoding/json.
func (ck *Checkpoint) Encode() ([]byte, error) { return ck.encode(nil) }

// encode writes the checkpoint with, when roots is not nil, the pool of
// roots written in place (ck.Pool is then set to it), else with ck.Pool.
// The fields after the pool are written first, so that the output grows
// once, when the pool goes in.
func (ck *Checkpoint) encode(roots []*symex.State) ([]byte, error) {
	fields := ck.fields()
	pool := slices.Index(checkpointKeys, "pool")
	var tail []byte
	var err error
	for _, f := range fields[pool+1:] {
		if tail, err = appendField(tail, f); err != nil {
			return nil, err
		}
	}
	b := make([]byte, 0, 1024)
	for _, f := range fields[:pool] {
		if b, err = appendField(b, f); err != nil {
			return nil, err
		}
	}
	b[0] = '{' // every field follows a comma: the first one's opens the object
	b = append(b, `,"pool":`...)
	switch start := len(b); {
	case roots != nil:
		b = symex.AppendPool(b, roots, len(tail)+1)
		ck.Pool = symex.Pool(b[start:len(b):len(b)])
	case ck.Pool == nil:
		b = append(b, "null"...)
	default:
		b = append(slices.Grow(b, len(ck.Pool)+len(tail)+1), ck.Pool...)
	}
	return append(append(b, tail...), '}'), nil
}

// appendField appends a comma and the field, or nothing when omitempty
// drops it.
func appendField(b []byte, f ckField) ([]byte, error) {
	if f.omit && empty(f.ptr) {
		return b, nil
	}
	b = append(append(append(b, ',', '"'), f.key...), '"', ':')
	switch p := f.ptr.(type) {
	case *string:
		return jsonx.AppendString(b, *p), nil
	case *uint64:
		return strconv.AppendUint(b, *p, 10), nil
	case *int:
		return strconv.AppendInt(b, int64(*p), 10), nil
	case *int64:
		return strconv.AppendInt(b, *p, 10), nil
	case *Strategy:
		return strconv.AppendInt(b, int64(*p), 10), nil
	case *bool:
		return strconv.AppendBool(b, *p), nil
	case *[]int:
		return appendList(b, *p, appendInt), nil
	case *[][]int64:
		return appendList(b, *p, func(b []byte, row []int64) []byte {
			return appendList(b, row, func(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) })
		}), nil
	case *[][]HeapSlot:
		return appendList(b, *p, func(b []byte, h []HeapSlot) []byte { return appendList(b, h, appendHeapSlot) }), nil
	}
	enc, err := json.Marshal(f.ptr)
	return append(b, enc...), err
}

// empty reports whether omitempty drops a field, as encoding/json decides.
func empty(ptr any) bool {
	v := reflect.ValueOf(ptr).Elem()
	switch v.Kind() {
	case reflect.Slice, reflect.Map, reflect.String:
		return v.Len() == 0
	}
	return v.IsZero()
}

// appendList writes a slice as encoding/json does: null when nil.
func appendList[T any](b []byte, s []T, elem func([]byte, T) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, v)
	}
	return append(b, ']')
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

func appendHeapSlot(b []byte, sl HeapSlot) []byte {
	b = strconv.AppendInt(append(b, `{"s":`...), int64(sl.S), 10)
	b = strconv.AppendInt(append(b, `,"f":`...), sl.F, 10)
	return append(b, '}')
}

// DecodeCheckpoint decodes a checkpoint produced by Encode. It decodes
// what json.Unmarshal decodes, to the same Checkpoint, but for inputs no
// encoder writes, which it may reject: a repeated key, or a key that
// matches a known one only case-insensitively. The returned Pool aliases
// data: the caller must not modify data while the checkpoint is in use.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	fields := ck.fields()
	r := jsonx.NewReader(data)
	toInt := func() int { return int(r.Int()) }
	var fits []int64 // scratch for the rows of alive_keys and heaps
	var slots []HeapSlot
	heapSlot := func() HeapSlot {
		var sl HeapSlot
		for o := r.Object(heapSlotKeys); o.Next(); {
			if o.Key == "s" {
				sl.S = toInt()
			} else {
				sl.F = r.Int()
			}
		}
		return sl
	}
	for o := r.Object(checkpointKeys); o.Next(); {
		switch p := fields[slices.Index(checkpointKeys, o.Key)].ptr.(type) {
		case *string:
			*p = string(r.Str())
		case *uint64:
			*p = r.Uint()
		case *int:
			*p = toInt()
		case *int64:
			*p = r.Int()
		case *Strategy:
			*p = Strategy(r.Int())
		case *bool:
			*p = r.Bool()
		case *symex.Pool:
			// The pool's syntax is checked here; Pool.Decode reads it.
			if raw := r.Skip(); string(raw) != "null" {
				*p = raw
			}
		case *[]int:
			*p = jsonx.List(r, nil, toInt)
		case *[][]int64:
			*p = jsonx.List(r, nil, func() []int64 { return jsonx.List(r, &fits, r.Int) })
		case *[][]HeapSlot:
			*p = jsonx.List(r, nil, func() []HeapSlot { return jsonx.List(r, &slots, heapSlot) })
		default:
			r.Unmarshal(p)
		}
	}
	r.End()
	if err := r.Err(); err != nil {
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
// the checkpointed search (called before the plan exists; worker.restore
// checks the race detector and the plan-derived layout).
func (ck *Checkpoint) compatible(prog *Program, opts Options) error {
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

// checkpoint serializes the sequential worker at the run-loop top and
// encodes it. res must already hold the run's cumulative counters
// (runSequential folds the worker first).
func (w *worker) checkpoint(res *Result) ([]byte, error) {
	roots := make([]*symex.State, 0, len(w.front.alive))
	for _, ls := range w.front.alive {
		roots = append(roots, ls.st)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	idx := make(map[int]int, len(roots)) // state ID -> root index
	for i, st := range roots {
		idx[st.ID] = i
	}

	nextStateID, nextObjID := w.eng.CheckpointCounters()
	ck := &Checkpoint{
		Schema:      CheckpointSchema,
		Fingerprint: w.prog.Fingerprint(),

		Strategy:        w.opts.Strategy,
		Seed:            w.opts.Seed,
		Quantum:         quantumSteps,
		MaxStates:       maxLiveStates,
		MaxSteps:        w.opts.MaxSteps,
		PreemptionBound: w.opts.PreemptionBound,
		WithRace:        w.det != nil,
		Ablate:          w.opts.Ablate,
		Goals:           w.goals,
		NumQueues:       len(w.queueGoals),

		ElapsedNS: res.Duration.Nanoseconds(),
		RngDraws:  w.rngSrc.draws,

		EngStats:    w.eng.Stats,
		NextStateID: nextStateID,
		NextObjID:   nextObjID,

		AllPicks:   w.allPicks,
		FrontPicks: w.front.picks,
		AgingPicks: w.agingPicks,
		Sheds:      w.sheds,
		MaxDepth:   w.maxDepth,
		BestFit:    w.bestFit,

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

		Recorder: w.opts.Recorder.Snapshot(),
		Race:     w.det.Snapshot(),
	}
	if w.opts.Strategy == StrategyESD {
		ck.AliveKeys = make([][]int64, len(roots))
		for i, st := range roots {
			keys := w.front.alive[st.ID].keys
			fits := make([]int64, len(keys))
			for q, k := range keys {
				fits[q] = k.fit
			}
			ck.AliveKeys[i] = fits
		}
		ck.Heaps = make([][]HeapSlot, len(w.front.heaps))
		for q, h := range w.front.heaps {
			for _, k := range h {
				if i, live := idx[k.id]; live {
					ck.Heaps[q] = append(ck.Heaps[q], HeapSlot{S: i, F: k.fit})
				}
			}
		}
		for _, id := range w.front.fifo {
			if i, live := idx[id]; live {
				ck.FIFO = append(ck.FIFO, i)
			}
		}
	} else {
		for _, st := range w.front.pool {
			if i, live := idx[st.ID]; live {
				ck.PoolOrder = append(ck.PoolOrder, i)
			} else {
				// Dead slots stay: RandomPath draws rng.Intn(len(pool)),
				// so the slice length is part of the deterministic replay.
				ck.PoolOrder = append(ck.PoolOrder, poolTombstone)
			}
		}
	}

	if p, ok := w.eng.Policy.(*sched.DeadlockPolicy); ok {
		ck.PolSnapshotsTaken = p.SnapshotsTaken
		ck.PolSnapshotsActivated = p.SnapshotsActivated
		ck.PolEagerForks = p.EagerForks
	}
	return ck.encode(roots)
}

// restore rebuilds a fresh sequential worker, its frontier still empty,
// from a checkpoint that compatible accepted, so that runLoop continues
// the run where it stopped. The race-detector setting and the plan
// layout must match the checkpointed run's (the detector is checked here,
// not in compatible, because a race report turns it on whatever the
// options say). Then come the VM counters, the per-run counters, the
// collaborators' state, the frontier structures and, last, the RNG
// position, whose replay fails with the context's error once the context
// ends; the solver baselines shift back by the checkpointed consumption,
// so the folded Result and the progress events stay cumulative across
// the chain.
func (w *worker) restore(ck *Checkpoint) error {
	if on := w.det != nil; ck.WithRace != on {
		return fmt.Errorf("search: checkpoint race detection is %v, the resume request's is %v", ck.WithRace, on)
	}
	if err := ck.validatePlan(w.plan); err != nil {
		return err
	}
	roots, err := ck.Pool.Decode(w.prog.mir)
	if err != nil {
		return err
	}
	if ck.RngDraws < 0 {
		return fmt.Errorf("search: checkpoint has %d rng draws", ck.RngDraws)
	}
	w.eng.Stats = ck.EngStats
	w.eng.RestoreCounters(ck.NextStateID, ck.NextObjID)
	w.allPicks = ck.AllPicks
	w.agingPicks = ck.AgingPicks
	w.sheds = ck.Sheds
	w.maxDepth = ck.MaxDepth
	w.bestFit = ck.BestFit
	for k, v := range ck.Terminals {
		w.terminals[k] = v
	}
	w.otherBugs = append([]string(nil), ck.OtherBugs...)
	w.stepErrors = ck.StepErrors
	w.prunedCritical = ck.PrunedCritical
	w.prunedInfinite = ck.PrunedInfinite
	w.base.queries -= ck.SolverQueries
	w.base.hits -= ck.SolverHits
	w.base.persist -= ck.SolverPersistentHits
	w.base.rejects -= ck.SolverVerifyRejects
	w.base.wallNS -= ck.SolverWallNS

	w.det.Restore(ck.Race)
	if p, ok := w.eng.Policy.(*sched.DeadlockPolicy); ok {
		p.SnapshotsTaken = ck.PolSnapshotsTaken
		p.SnapshotsActivated = ck.PolSnapshotsActivated
		p.EagerForks = ck.PolEagerForks
	}

	f := w.front
	f.picks = ck.FrontPicks
	for _, st := range roots {
		if _, dup := f.alive[st.ID]; dup {
			return fmt.Errorf("search: checkpoint has two roots with state ID %d", st.ID)
		}
		f.alive[st.ID] = liveState{st: st}
	}
	if w.opts.Strategy == StrategyESD {
		if len(ck.AliveKeys) != len(roots) {
			return fmt.Errorf("search: checkpoint has %d key rows for %d roots", len(ck.AliveKeys), len(roots))
		}
		if len(ck.Heaps) != len(f.heaps) {
			return fmt.Errorf("search: checkpoint has %d heaps, frontier has %d", len(ck.Heaps), len(f.heaps))
		}
		for i, st := range roots {
			fits := ck.AliveKeys[i]
			if len(fits) != len(w.queueGoals) {
				return fmt.Errorf("search: root %d has %d queue keys, want %d", i, len(fits), len(w.queueGoals))
			}
			keys := make([]esdKey, len(fits))
			for q, fit := range fits {
				keys[q] = esdKey{fit: fit, id: st.ID}
			}
			// Direct alive/heaps assembly (not insert): the heap contents
			// below carry the lazy-deletion history insert would not
			// recreate.
			f.alive[st.ID] = liveState{st: st, keys: keys}
		}
		for q, slots := range ck.Heaps {
			for _, sl := range slots {
				if sl.S < 0 || sl.S >= len(roots) {
					return fmt.Errorf("search: heap %d references invalid root %d", q, sl.S)
				}
				f.heaps[q].push(esdKey{fit: sl.F, id: roots[sl.S].ID})
			}
		}
		for _, ri := range ck.FIFO {
			if ri < 0 || ri >= len(roots) {
				return fmt.Errorf("search: fifo references invalid root %d", ri)
			}
			f.fifo = append(f.fifo, roots[ri].ID)
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
				f.pool = append(f.pool, tombstone)
			case ri >= 0 && ri < len(roots):
				f.pool = append(f.pool, roots[ri])
			default:
				return fmt.Errorf("search: pool references invalid root %d", ri)
			}
		}
	}
	return w.rngSrc.skip(w.ctx, ck.RngDraws)
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
