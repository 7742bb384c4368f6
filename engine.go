package esd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"esd/internal/dist"
	"esd/internal/expr"
	"esd/internal/pcache"
	"esd/internal/search"
	"esd/internal/solver"
	"esd/internal/telemetry"
	"esd/internal/trace"
)

// DefaultBudget is the per-synthesis wall-clock budget applied when
// neither a SynthOption nor the context imposes a tighter bound; override
// it per call with WithBudget.
const DefaultBudget = 10 * time.Minute

// Engine is the long-lived synthesis core, safe for concurrent use. Its
// compile memo keeps up to maxCachedPrograms programs, and each Program
// keeps what its syntheses share: its distance tables and its idle warm
// solvers. So many reports against one program pay for the static phase
// once and start from the solver memos earlier reports filled. Create one
// engine per process (or per tenant) with New; the esdserve service and
// the CLIs all run on top of it.
type Engine struct {
	// pcache is the persistent cross-run solver-fact store
	// (WithPersistentCache); nil when no cache directory is configured.
	// pcacheErr records a failed open — the engine then runs without the
	// persistent tier rather than failing construction, and surfaces the
	// error via PersistentCacheError.
	pcache    *pcache.Store
	pcacheErr error

	mu       sync.Mutex
	programs map[string]*Program // the compile memo, keyed by source hash

	active      atomic.Int64
	synthesized atomic.Int64
	found       atomic.Int64
	compiled    atomic.Int64
	compileHits atomic.Int64
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithPersistentCache opens (creating if needed) a persistent cross-run
// solver-fact store in dir and attaches it as the engine's outer cache
// tier: every synthesis attaches the program's view of it (scoped to the
// program's structural fingerprint) to each solver it runs on, which
// consults it when its private memo misses and publishes every definite
// component verdict back. Because entries are keyed by canonical
// structural fingerprints — not process-local intern identities — a
// verdict written by one process is a hit in the next, across restarts.
//
// Correctness does not depend on the directory's contents: Sat models
// are re-verified by concrete evaluation against the live terms before
// a hit is served, and the store discards entries written under a
// different structural-key version at open. Warm runs are therefore
// bit-identical to cold runs (the determinism contract); only wall
// clock changes. If the store cannot be opened, the engine runs without
// the persistent tier and PersistentCacheError reports why. Call Close
// at shutdown to compact the store.
func WithPersistentCache(dir string) Option {
	return func(e *Engine) {
		e.pcache, e.pcacheErr = pcache.Open(dir)
	}
}

// PersistentCacheError reports why WithPersistentCache's store failed to
// open (nil when it opened, or was never configured). The engine
// degrades to in-memory caching on failure rather than refusing to
// start; services surface this from their health endpoint.
func (e *Engine) PersistentCacheError() error { return e.pcacheErr }

// Close flushes and closes the engine's persistent cache store, if any.
// The engine remains usable for synthesis afterwards — lookups keep
// answering from memory and publishes are dropped — so a shutdown race
// with an in-flight synthesis is benign; call it once at process exit.
func (e *Engine) Close() error {
	if e.pcache == nil {
		return nil
	}
	return e.pcache.Close()
}

// New builds an Engine with the given options.
func New(opts ...Option) *Engine {
	e := &Engine{programs: map[string]*Program{}}
	for _, o := range opts {
		o(e)
	}
	return e
}

// maxCachedPrograms bounds the Compile memo, and with it the distance
// tables and idle solvers the engine keeps warm, which belong to the
// programs. The steady state is many reports against a handful of
// builds, so the cap is generous; but a client churning distinct sources
// (fuzzing, CI) must not grow the engine without bound. Eviction is
// arbitrary-entry: no access-order bookkeeping on the hit path, and a
// re-compile of an evicted program is cheap relative to a synthesis.
const maxCachedPrograms = 256

// Compile compiles MiniC source, memoizing by source text: repeated
// requests for the same program (the service's steady state — many bug
// reports against one build) share one compiled program and therefore
// its distance tables and warm solvers.
func (e *Engine) Compile(filename, source string) (*Program, error) {
	sum := sha256.Sum256(append([]byte(filename+"\x00"), source...))
	key := hex.EncodeToString(sum[:])
	e.mu.Lock()
	if p, ok := e.programs[key]; ok {
		e.mu.Unlock()
		e.compileHits.Add(1)
		return p, nil
	}
	e.mu.Unlock()
	// Compile outside the lock: concurrent first-time compiles of
	// different programs must not serialize. A racing duplicate compile
	// of the same source is harmless: the first one in wins, and the
	// others count as hits on its program.
	p, err := CompileMiniC(filename, source)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if prev, ok := e.programs[key]; ok {
		p = prev
		e.compileHits.Add(1)
	} else {
		for k := range e.programs {
			if len(e.programs) < maxCachedPrograms {
				break
			}
			delete(e.programs, k)
		}
		e.programs[key] = p
		e.compiled.Add(1)
	}
	e.mu.Unlock()
	return p, nil
}

// Program returns the compiled program whose ID is id while the compile
// memo holds it, or nil.
func (e *Engine) Program(id string) *Program {
	e.mu.Lock()
	progs := slices.Collect(maps.Values(e.programs))
	e.mu.Unlock()
	for _, p := range progs {
		if p.ID() == id {
			return p
		}
	}
	return nil
}

// ProgressEvent is a streaming synthesis-progress snapshot (phase
// transitions plus periodic step/state/frontier/distance counters).
type ProgressEvent = search.ProgressEvent

// Phase identifies the synthesis pipeline stage of a ProgressEvent.
type Phase = search.Phase

// Synthesis phases, in pipeline order.
const (
	PhaseAnalyze = search.PhaseAnalyze
	PhaseSearch  = search.PhaseSearch
	PhaseSolve   = search.PhaseSolve
	PhaseDone    = search.PhaseDone
)

// SynthOption tunes one Synthesize call.
type SynthOption func(*search.Options)

// WithStrategy selects the search strategy (default ESD).
func WithStrategy(s Strategy) SynthOption {
	return func(o *search.Options) { o.Strategy = s }
}

// WithBudget bounds the synthesis wall-clock time. Zero means
// DefaultBudget; the context's deadline applies when tighter.
func WithBudget(d time.Duration) SynthOption {
	return func(o *search.Options) { o.Budget = d }
}

// WithSeed makes the run deterministic for a given seed.
func WithSeed(seed int64) SynthOption {
	return func(o *search.Options) { o.Seed = seed }
}

// WithPreemptionBound switches to Chess-style bounded schedule search
// (the KC baseline) when n > 0.
func WithPreemptionBound(n int) SynthOption {
	return func(o *search.Options) { o.PreemptionBound = n }
}

// WithRaceDetection enables Eraser-style race detection during synthesis
// (finds race-triggered bugs and flags preemption points).
func WithRaceDetection() SynthOption {
	return func(o *search.Options) { o.WithRaceDetector = true }
}

// WithParallelism runs the search frontier-parallel: n workers share one
// priority frontier behind one lock, one dedup set, and the compiled
// program and distance tables, each running its own symbolic VM and one
// of the program's solvers; the first worker to reach the goal cancels
// the rest.
// n <= 1 runs the unchanged sequential search, so WithParallelism(1) is
// bit-identical to the default.
// Frontier-parallel runs explore the sequential search's state space,
// less the duplicate decision histories the dedup set drops, in a
// schedule-dependent order, so their step counts and flight traces vary
// run to run; the synthesized execution still strict-replays exactly.
func WithParallelism(n int) SynthOption {
	return func(o *search.Options) { o.Parallelism = n }
}

// OnProgress streams progress events for this call. The callback runs
// synchronously on the synthesis goroutine — keep it fast.
func OnProgress(fn func(ProgressEvent)) SynthOption {
	return func(o *search.Options) { o.OnProgress = fn }
}

// WithTelemetry attaches a flight recorder to the call: the Result
// carries a Report with the run's counter summary and a ring-buffered
// trace of phase transitions and sampled frontier snapshots. Disabled,
// the recorder costs one nil check per sample site; enabled, sampling is
// keyed to deterministic pick counts, so the report's DeterministicJSON is
// byte-identical across replays of the same seed.
func WithTelemetry() SynthOption {
	return func(o *search.Options) { o.Recorder = telemetry.NewRecorder(0) }
}

// Checkpoint is a preempted synthesis, serialized: the search frontier,
// state graph, RNG position, and counters, re-interned on load so it
// outlives the terms it was built from and the process. Produced by a
// WithPreempt run (Result.Checkpoint), consumed by WithResume.
type Checkpoint = search.Checkpoint

// DecodeCheckpoint parses a checkpoint produced by a preempted synthesis
// (Result.Checkpoint holds the encoded form). The checkpoint keeps its
// state pool as a slice of data: data must not change while the
// checkpoint is in use.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	return search.DecodeCheckpoint(data)
}

// WithPreempt makes the synthesis preemptible: fn is polled at the top of
// every search iteration (never mid-quantum), and returning true parks
// the run — the Result comes back with Preempted set and Checkpoint
// holding the serialized search, resumable later with WithResume. The
// jobs scheduler uses this to time-slice long syntheses. Only sequential
// runs are preemptible: with WithParallelism(n > 1) fn is never polled and
// the run goes to an ordinary outcome (a parallel interleaving has no
// deterministic frontier to checkpoint). A resumed chain's final Result —
// counters, flight report, DeterministicJSON — is byte-identical to an
// uninterrupted run's.
func WithPreempt(fn func() bool) SynthOption {
	return func(o *search.Options) { o.Preempt = fn }
}

// WithResume continues a preempted synthesis from its checkpoint instead
// of starting fresh. The program, report goals, and determinism-steering
// options (strategy, seed, preemption bound, race detection) must match
// the checkpointed run's; the budget may differ. Combine with WithPreempt
// to keep time-slicing the resumed run.
func WithResume(ck *Checkpoint) SynthOption {
	return func(o *search.Options) { o.Resume = ck }
}

// Synthesize searches for an execution of prog that reproduces rep. It
// honors ctx: cancellation aborts the search promptly (the VM polls the
// context on a short step cadence) and is reported as Result.Cancelled;
// the budget becomes the search context's deadline, so it and a ctx
// deadline tighter than it are both reported as TimedOut.
func (e *Engine) Synthesize(ctx context.Context, prog *Program, rep *BugReport, opts ...SynthOption) (*Result, error) {
	var so search.Options
	for _, o := range opts {
		o(&so)
	}
	reqStart := time.Now()
	if so.Budget == 0 {
		so.Budget = DefaultBudget
	}
	sp := prog.searchProgram()
	// The persistent tier is scoped by the program's structural
	// fingerprint; every solver of this request shares the one view. With
	// no store it stays a nil interface, not a typed nil.
	var persist solver.PersistentCache
	if e.pcache != nil {
		persist = e.pcache.ForProgram(sp.Fingerprint())
	}
	// Every worker (one, or Parallelism of a frontier-parallel run) takes
	// one of the program's idle solvers, warm from its earlier syntheses,
	// or a new one. It keeps this engine's persistent tier until it goes
	// back: the program may serve another engine next.
	so.Solvers = make([]*solver.Solver, max(so.Parallelism, 1))
	for i := range so.Solvers {
		so.Solvers[i] = prog.takeSolver()
		so.Solvers[i].Persist = persist
	}
	defer func() {
		for _, sol := range so.Solvers {
			sol.Persist = nil
		}
		prog.giveSolvers(so.Solvers)
	}()

	e.active.Add(1)
	defer e.active.Add(-1)
	res, err := search.Synthesize(ctx, sp, rep.R, so)
	e.synthesized.Add(1)
	if err != nil {
		return nil, err
	}
	out := &Result{
		TimedOut:  res.Outcome == search.OutcomeTimeout || res.Outcome == search.OutcomeStepCap,
		Cancelled: res.Outcome == search.OutcomeCancelled,
		OtherBugs: res.OtherBugs,
		Stats: Stats{
			Duration:             res.Duration,
			Steps:                res.Steps,
			States:               res.StatesCreated,
			BranchForks:          res.BranchForks,
			SolverQueries:        res.SolverQueries,
			SolverCacheHits:      res.SolverHits,
			SolverPersistentHits: res.SolverPersistentHits,
			SolverVerifyRejects:  res.SolverVerifyRejects,
			SolverWallNanos:      res.SolverWallNanos,
			Workers:              res.Workers,
			Sheds:                res.Sheds,
			Interner:             expr.InternerStats(),
		},
	}
	if res.Outcome == search.OutcomePreempted {
		// The run is parked, not done: hand back the serialized search and
		// skip the solve phase and the done event — the segment that finally
		// completes the resumed chain finishes the trace, keeping the chain's
		// final report byte-identical to an uninterrupted run's.
		out.Preempted = true
		out.Checkpoint = res.Checkpoint
		out.CheckpointNanos = res.CheckpointNanos
		if so.Recorder != nil {
			out.report = buildFlightReport(so, rep, res, 0, time.Since(reqStart))
		}
		return out, nil
	}
	emit := func(ph Phase) {
		if so.OnProgress != nil {
			so.OnProgress(ProgressEvent{Phase: ph, Time: time.Now(), Elapsed: res.Duration, Steps: res.Steps, States: res.StatesCreated, SolverQueries: res.SolverQueries})
		}
		so.Recorder.Phase(ph.String(), res.Steps, res.StatesCreated)
	}
	var solveNS int64
	if res.Found != nil {
		emit(PhaseSolve)
		solveStart := time.Now()
		// The solve phase re-checks the winner's path condition. After a
		// sequential search the solver's private cache already holds those
		// components.
		ex, err := trace.FromState(res.Found, so.Solvers[0])
		solveNS = time.Since(solveStart).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("esd: solving synthesized path: %w", err)
		}
		out.Execution = &Execution{E: ex}
		out.Found = true
		e.found.Add(1)
	}
	emit(PhaseDone)
	if so.Recorder != nil {
		out.report = buildFlightReport(so, rep, res, solveNS, time.Since(reqStart))
	}
	return out, nil
}

// buildFlightReport assembles the WithTelemetry report from a finished
// run: the search's deterministic counters and trace, plus the wall-clock
// attribution section (which DeterministicJSON strips — wall times and
// warm-solver cache hits vary run to run).
func buildFlightReport(so search.Options, rep *BugReport, res *search.Result, solveNS int64, total time.Duration) *telemetry.Report {
	searchNS := res.Duration.Nanoseconds() - res.SolverWallNanos
	if searchNS < 0 {
		searchNS = 0
	}
	par := 0
	if res.Workers > 1 {
		par = res.Workers
	}
	return &telemetry.Report{
		Schema:      telemetry.ReportSchema,
		Outcome:     res.Outcome.String(),
		Strategy:    so.Strategy.String(),
		Seed:        so.Seed,
		GoalQueues:  res.IntermediateGoalSets + len(rep.R.Goals()),
		Parallelism: par,
		DedupDrops:  res.DedupDrops,
		Steps:       res.Steps,
		States:      res.StatesCreated,
		MaxDepth:    res.MaxDepth,
		Forks: map[string]int64{
			"branch":              res.BranchForks,
			"sched":               res.SchedForks,
			"eager":               int64(res.EagerForks),
			"snapshot":            int64(res.SnapshotsTaken),
			"snapshot_activation": int64(res.SnapshotsActivated),
		},
		AgingPicks: res.AgingPicks,
		Pruned: map[string]int64{
			"critical_edge":     res.PrunedCritical,
			"infinite_distance": res.PrunedInfinite,
		},
		Sheds: res.Sheds,
		Solver: telemetry.SolverStats{
			Queries:         int64(res.SolverQueries),
			Concretizations: res.Concretizations,
		},
		Trace:        so.Recorder.Events(),
		TraceDropped: so.Recorder.Dropped(),
		Wall: &telemetry.WallStats{
			TotalNS:              total.Nanoseconds(),
			SearchNS:             searchNS,
			SolverNS:             res.SolverWallNanos,
			SolveNS:              solveNS,
			SolverCacheHits:      int64(res.SolverHits),
			SolverPersistentHits: int64(res.SolverPersistentHits),
			SolverVerifyRejects:  int64(res.SolverVerifyRejects),
			Workers:              res.WorkerWall,
		},
	}
}

// EngineStats is a point-in-time snapshot of an Engine's cumulative
// activity and of the warmth its programs keep (the /healthz payload of
// esdserve).
type EngineStats struct {
	// Active is the number of syntheses currently running.
	Active int64 `json:"active"`
	// Synthesized counts completed synthesis calls; Found counts the
	// subset that reproduced their bug.
	Synthesized int64 `json:"synthesized"`
	Found       int64 `json:"found"`
	// ProgramsCompiled and CompileCacheHits report Compile traffic;
	// ProgramsCached is the memo's current size, at most 256: the bound
	// on the programs, and so on the distance tables and idle solvers,
	// the engine keeps.
	ProgramsCompiled int64 `json:"programs_compiled"`
	CompileCacheHits int64 `json:"compile_cache_hits"`
	ProgramsCached   int   `json:"programs_cached"`
	// DistCacheMisses counts distance-table builds, one per program on
	// its first synthesis, and DistCacheHits the syntheses that found
	// their program's tables built (process-wide, not per engine).
	DistCacheHits   int64 `json:"dist_cache_hits"`
	DistCacheMisses int64 `json:"dist_cache_misses"`
	// Interner is the global hash-consed term store's footprint
	// (process-wide, not per engine).
	Interner InternerStats `json:"interner"`
	// PersistentCache snapshots the cross-run solver-fact store
	// (WithPersistentCache); nil when no cache directory is configured.
	// PersistentCacheError is why the configured store failed to open
	// (empty otherwise) — the engine degrades to in-memory caching.
	PersistentCache      *pcache.Stats `json:"persistent_cache,omitempty"`
	PersistentCacheError string        `json:"persistent_cache_error,omitempty"`
}

// Stats snapshots the engine.
func (e *Engine) Stats() EngineStats {
	hits, misses := dist.SharedCacheStats()
	e.mu.Lock()
	cached := len(e.programs)
	e.mu.Unlock()
	st := EngineStats{
		Active:           e.active.Load(),
		Synthesized:      e.synthesized.Load(),
		Found:            e.found.Load(),
		ProgramsCompiled: e.compiled.Load(),
		CompileCacheHits: e.compileHits.Load(),
		ProgramsCached:   cached,
		DistCacheHits:    hits,
		DistCacheMisses:  misses,
		Interner:         expr.InternerStats(),
	}
	if e.pcache != nil {
		pst := e.pcache.Stats()
		st.PersistentCache = &pst
	}
	if e.pcacheErr != nil {
		st.PersistentCacheError = e.pcacheErr.Error()
	}
	return st
}
