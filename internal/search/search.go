// Package search implements ESD's path-and-schedule search (§3.3–§3.4),
// plus the baseline strategies it is compared against (§7.2).
//
// The ESD strategy maintains n "virtual" priority queues, one per
// intermediate goal derived by static analysis and one per final goal from
// the bug report. Each queue orders the live execution states by the
// proximity heuristic (internal/dist), biased heavily by the schedule
// distance (§4.1). At every step a queue is chosen uniformly at random and
// its best state runs for a quantum of instructions; forks join the pool,
// and states that static analysis proves cannot reach the goal are
// abandoned (the critical-edge pruning of §3.2), as are states whose
// proximity score puts a final goal at Infinite distance.
//
// The baselines are DFS (exhaustive-equivalent) and RandomPath, each
// combined with Chess-style preemption bounding for multithreaded programs
// — the "KC" hybrid of §7.2.
//
// With Options.Parallelism > 1 the same best-first search runs
// frontier-parallel (see parallel.go): that many workers, each with its
// own symbolic VM and solver over the shared compiled program and
// distance tables, pick from and insert into one frontier behind one
// lock; a dedup set suppresses re-exploration, and the first worker to
// reach the goal cancels the rest. Both searches run the same worker type
// (see worker.go), and both keep their live pool bounded the same way:
// past its cap, the worse half of the live states goes, ranked by the
// keys they were inserted with (queueFrontier.shedWorst). Parallelism <= 1
// runs the sequential loop, whose picks, preemption polls and sheds are
// the determinism contract.
//
// A search has one clock: Options.Budget is the deadline of the run's
// context, which the sequential loop, the VM's poll and every parallel
// worker stop on. Result.Outcome records how the search stopped.
package search

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"esd/internal/cfa"
	"esd/internal/dist"
	"esd/internal/mir"
	"esd/internal/race"
	"esd/internal/report"
	"esd/internal/sched"
	"esd/internal/solver"
	"esd/internal/symex"
	"esd/internal/telemetry"
)

// Strategy selects the exploration order.
type Strategy int

// Strategies.
const (
	StrategyESD Strategy = iota
	StrategyDFS
	StrategyRandomPath
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyESD:
		return "ESD"
	case StrategyDFS:
		return "DFS"
	case StrategyRandomPath:
		return "RandPath"
	}
	return "?"
}

// Ablate disables individual search-focusing techniques (the §7.3
// ablation study). The zero value runs full ESD.
type Ablate struct {
	// NoProximity disables the distance heuristic entirely: queues become
	// FIFO and the Infinite-distance pruning gate is skipped.
	NoProximity         bool
	NoIntermediateGoals bool // only final goals get queues
	NoCriticalEdges     bool // disable static pruning
	// BinarySchedDist collapses the graded §4.1 sync-distance metric back
	// to the original near/far bit (policy-scored states near, everything
	// else one undifferentiated far band) — the schedule-distance ablation.
	BinarySchedDist bool
}

// Options is the canonical synthesis-tuning record: the public esd.Engine
// API, the experiment harness, and the CLIs all speak this one type (the
// pre-Engine API copied three parallel structs field by field).
type Options struct {
	Strategy Strategy
	// Budget bounds wall-clock time as the run context's deadline,
	// measured from the run's start (back-dated by what a resumed chain
	// already spent); an earlier caller deadline stands. 0 = no limit.
	// The public API resolves 0 to the engine's DefaultBudget.
	Budget time.Duration
	// MaxSteps bounds total executed instructions (0 = default 50M).
	MaxSteps int64
	// Seed drives the queue-selection randomness (deterministic runs).
	Seed int64

	// PreemptionBound, when > 0, replaces ESD's bug-aware scheduling policy
	// with Chess-style preemption bounding (the KC baseline; the paper
	// uses bound 2).
	PreemptionBound int
	// WithRaceDetector enables the Eraser-style detector during synthesis
	// (the --with-race-det flag of §8).
	WithRaceDetector bool

	// Ablate disables individual focusing techniques (§7.3).
	Ablate Ablate

	// Solvers, when set, are the workers' solvers: worker i (worker 0 is
	// the sequential search's one) uses Solvers[i] if it exists and a
	// fresh solver otherwise. Passing warm solvers shares their memos of
	// component verdicts across runs (entries are keyed by canonical
	// structural term fingerprints, so they are valid for any program).
	// The search uses each solver's persistent tier (Solver.Persist) as
	// the caller set it and neither attaches nor detaches one. A Solver
	// is not safe for concurrent use: callers hand each concurrent search
	// its own.
	Solvers []*solver.Solver

	// OnProgress, when set, receives phase transitions and periodic
	// search-progress snapshots (at most one per progressInterval). It is
	// called synchronously from the search loop: implementations must be
	// fast and must not call back into the search.
	OnProgress func(ProgressEvent)
	// Recorder, when non-nil, receives the flight-recorder trace: phase
	// transitions and frontier snapshots sampled on a deterministic
	// pick-count cadence (never wall-clock), so two runs with the same seed
	// record identical traces. A nil Recorder costs one pointer check.
	Recorder *telemetry.Recorder

	// Parallelism, when > 1, runs the search with that many frontier
	// workers over one shared priority frontier (per-worker VMs and
	// solvers, state dedup, first-to-goal cancellation; see parallel.go).
	// 0 or 1 runs the single-threaded search — the deterministic
	// baseline a parallel run's winner is replayed against.
	Parallelism int

	// Preempt, when set, is polled at the top of every sequential
	// run-loop iteration (never mid-quantum). Returning true stops the
	// search and serializes it: the Result's Outcome is OutcomePreempted
	// and its Checkpoint holds everything needed to continue later.
	// Frontier-parallel runs ignore it (their interleaving is not
	// replayable, so there is nothing deterministic to checkpoint).
	Preempt func() bool
	// Resume, when non-nil, continues a preempted search instead of
	// starting fresh. The program, report goals, and every
	// determinism-steering option must match the checkpointed run's;
	// Budget may differ (it bounds wall clock, which is already outside
	// the deterministic body). Requires Parallelism <= 1.
	Resume *Checkpoint
}

// progressInterval is the minimum spacing of periodic progress events.
// Phase transitions are always delivered.
const progressInterval = 250 * time.Millisecond

// quantumSteps is the number of instructions a picked state runs before
// the search picks again.
const quantumSteps = 32

// maxLiveStates caps the sequential search's live state pool: past it the
// worse half is shed. A frontier-parallel run's budget is n times it.
const maxLiveStates = 8192

// Phase identifies where in the synthesis pipeline a ProgressEvent was
// emitted.
type Phase int

// Synthesis phases. The search emits Analyze and Search; the public
// engine adds Solve (concretizing the found path) and Done.
const (
	PhaseAnalyze Phase = iota
	PhaseSearch
	PhaseSolve
	PhaseDone
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseAnalyze:
		return "analyze"
	case PhaseSearch:
		return "search"
	case PhaseSolve:
		return "solve"
	case PhaseDone:
		return "done"
	}
	return "?"
}

// ProgressEvent is one streaming progress snapshot of a synthesis run.
type ProgressEvent struct {
	// Phase is the pipeline stage; a phase's first event marks its
	// transition.
	Phase Phase
	// Time is the wall-clock timestamp of the event; consumers derive step
	// rates from (Time, Steps) deltas without assuming a delivery cadence.
	Time time.Time
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Steps and States are the engine's cumulative work counters.
	Steps  int64
	States int64
	// Live is the frontier size (live states in the pool).
	Live int
	// Depth is the deepest path explored so far, in executed instructions.
	Depth int64
	// BestDist is the lowest combined fitness (schedule-weighted distance
	// to a final goal) seen so far; dist.Infinite until a state is scored.
	BestDist int64
	// SolverQueries counts satisfiability queries issued so far.
	SolverQueries int
}

// Outcome is how a search ended; the zero Outcome is a search that has
// not ended. A frontier that ran dry reads exhausted only when no state
// was shed on the way: after a shed, states that were never explored may
// hold the bug, so the run is incomplete. A timeout is the run context's
// deadline, the budget's or the caller's; the step cap is
// Options.MaxSteps.
type Outcome int

// Outcomes.
const (
	OutcomeExhausted Outcome = iota + 1
	OutcomeIncomplete
	OutcomeFound
	OutcomePreempted
	OutcomeCancelled
	OutcomeTimeout
	OutcomeStepCap
)

var outcomeNames = [...]string{
	OutcomeExhausted: "exhausted", OutcomeIncomplete: "incomplete", OutcomeFound: "found",
	OutcomePreempted: "preempted", OutcomeCancelled: "cancelled", OutcomeTimeout: "timeout",
	OutcomeStepCap: "step_cap",
}

// String names the outcome for the flight report and /metrics.
func (o Outcome) String() string { return outcomeNames[o] }

// ranDry is the outcome of a search whose frontier ran dry after shedding
// sheds states.
func ranDry(sheds int64) Outcome {
	if sheds > 0 {
		return OutcomeIncomplete
	}
	return OutcomeExhausted
}

// ctxOutcome is the outcome of a search stopped by its context ending
// with err: a deadline is a timeout, anything else a cancellation.
func ctxOutcome(err error) Outcome {
	if errors.Is(err, context.DeadlineExceeded) {
		return OutcomeTimeout
	}
	return OutcomeCancelled
}

// Result is what a synthesis run found and did.
type Result struct {
	// Found is the synthesized failing state matching the report (nil if
	// none found within budget).
	Found *symex.State
	// Outcome is how the run ended. When it is OutcomePreempted,
	// Checkpoint holds the encoded run (DecodeCheckpoint reads it) and
	// CheckpointNanos the wall time spent building and encoding it. All
	// counters below are cumulative across a preempt/resume chain (a
	// resumed Result reads as if the run had never stopped).
	Outcome         Outcome
	Checkpoint      []byte
	CheckpointNanos int64

	Duration      time.Duration
	Steps         int64
	StatesCreated int64
	BranchForks   int64
	SolverQueries int
	// SolverHits counts components answered by the solvers' private memos
	// (one per component a query finds there).
	SolverHits int
	// SolverPersistentHits counts component verdicts served from the
	// persistent cross-run tier (0 when no solver has one attached);
	// SolverVerifyRejects counts persistent entries discarded because
	// their model failed re-verification. Cache-warmth counters, outside
	// the deterministic flight body.
	SolverPersistentHits int
	SolverVerifyRejects  int
	// SchedForks counts scheduling-policy forks (the sched share of the
	// fork split; BranchForks is the symbolic-branch share).
	SchedForks int64
	// SolverWallNanos is this run's wall time spent answering solver
	// queries — Duration minus it is the search loop's own share.
	SolverWallNanos int64
	// Concretizations counts solver-backed term pinnings.
	Concretizations int64
	// MaxDepth is the deepest path explored, in executed instructions.
	MaxDepth int64

	// OtherBugs are failures found along the way that do not match the
	// report (recorded and skipped, §4.1).
	OtherBugs []string
	// Terminals counts finished states by status (diagnostics: how the
	// explored space splits into exits, other failures, and abandonments).
	Terminals map[symex.StateStatus]int64
	// StepErrors counts states abandoned on engine-level errors.
	StepErrors int64
	// Pruned counts states abandoned by the critical-edge/Infinite gates;
	// PrunedCritical and PrunedInfinite split it by gate.
	Pruned         int64
	PrunedCritical int64
	PrunedInfinite int64
	// AgingPicks counts FIFO aging picks; Sheds counts states dropped by
	// pool-overflow shedding.
	AgingPicks int64
	Sheds      int64
	// IntermediateGoalSets is the number of goal sets the static phase
	// produced (reported for the evaluation).
	IntermediateGoalSets int
	// SnapshotsTaken/SnapshotsActivated/EagerForks report the deadlock
	// policy's K_S and decision-point activity (diagnostics).
	SnapshotsTaken     int
	SnapshotsActivated int
	EagerForks         int

	// Workers is the number of frontier workers that ran the search (1
	// for the sequential search); WorkerWall attributes per-worker wall
	// time and work when Workers > 1. DedupDrops counts forks dropped by
	// the cross-worker dedup set (0 in sequential runs).
	Workers    int
	WorkerWall []telemetry.WorkerWall
	DedupDrops int64
}

// Program is the static half of a compiled program, which every
// synthesis of it shares: the MIR, the call graph and distance tables,
// built by the first synthesis, and the structural fingerprint, computed
// the first time a checkpoint or the caller reads it. It is safe for
// concurrent syntheses. Build one per program with NewProgram and keep
// it as long as the program: the tables live as long as it does.
type Program struct {
	mir    *mir.Program
	tables dist.Shared
	fpOnce sync.Once
	fp     uint64
}

// NewProgram wraps a compiled program for synthesis.
func NewProgram(m *mir.Program) *Program { return &Program{mir: m} }

// Fingerprint returns the program's structural fingerprint
// (mir.Program.Fingerprint), computing it on the first call.
func (p *Program) Fingerprint() uint64 {
	p.fpOnce.Do(func() { p.fp = p.mir.Fingerprint() })
	return p.fp
}

// Synthesize searches for an execution of prog matching rep. The run's
// context carries the budget as its deadline and stops the search
// promptly (mid-quantum: the VM checks it on a short step cadence); a
// deadline ends the run as OutcomeTimeout, a cancellation as
// OutcomeCancelled. A context that has already ended returns before the
// static phase.
func Synthesize(ctx context.Context, prog *Program, rep *report.Report, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 50_000_000
	}
	if opts.Parallelism <= 1 {
		// One worker is the sequential search.
		opts.Parallelism = 0
	}
	resume := opts.Resume
	if opts.Parallelism > 0 {
		if resume != nil {
			return nil, fmt.Errorf("search: checkpoint resume requires a sequential search (Parallelism <= 1)")
		}
		// Frontier-parallel interleavings are not replayable, so there is
		// no deterministic frontier to checkpoint: the run is simply not
		// preemptible and executes to an ordinary outcome.
		opts.Preempt = nil
	}
	if resume != nil {
		if err := resume.compatible(prog, opts); err != nil {
			return nil, err
		}
		// Restore the flight trace before any phase emission: the
		// checkpointed trace already contains this run's analyze/search
		// transitions, so a resumed segment re-emits none (the OnProgress
		// stream, being wall-clock shaped, still gets fresh events).
		opts.Recorder.Restore(resume.Recorder)
	}
	start := time.Now()
	if resume != nil {
		// Back-date the run start by the consumed budget so wall-clock
		// budgeting and Duration are cumulative across the chain.
		start = start.Add(-time.Duration(resume.ElapsedNS))
	}
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(opts.Budget))
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return &Result{Outcome: ctxOutcome(err)}, nil
	}
	emit := func(ph Phase, live int) {
		if opts.OnProgress != nil {
			now := time.Now()
			opts.OnProgress(ProgressEvent{Phase: ph, Time: now, Elapsed: now.Sub(start), Live: live})
		}
		if resume == nil {
			opts.Recorder.Phase(ph.String(), 0, 0)
		}
	}
	emit(PhaseAnalyze, 0)

	pl, err := buildPlan(prog, rep, opts)
	if err != nil {
		return nil, err
	}
	var res *Result
	if opts.Parallelism > 0 {
		res, err = runParallel(ctx, pl, opts, start, emit)
	} else {
		res, err = runSequential(ctx, pl, opts, start, emit)
	}
	if err != nil {
		return nil, err
	}
	if res.Found != nil {
		opts.Recorder.Record(telemetry.Event{
			Kind:          telemetry.EventFound,
			Steps:         res.Steps,
			States:        res.StatesCreated,
			Depth:         res.MaxDepth,
			SolverQueries: int64(res.SolverQueries),
		})
	}
	if resume != nil {
		// A resumed segment flushes only its own delta: the preempted
		// segments before it already flushed theirs.
		flushTelemetry(resume.flushDelta(res))
	} else {
		flushTelemetry(res)
	}
	return res, nil
}

// runSequential runs the deterministic search: one worker driven through
// runLoop, from the initial state or from opts.Resume's checkpoint, and
// checkpointed again when Preempt stops it.
func runSequential(ctx context.Context, pl *plan, opts Options, start time.Time, emit func(Phase, int)) (*Result, error) {
	w := newWorker(ctx, pl, opts, 0, 1, start)
	if ck := opts.Resume; ck != nil {
		// A context that ends while the RNG replays leaves the rest of
		// the run restored, and runLoop then ends it with its counters.
		if err := w.restore(ck); err != nil && !errors.Is(err, ctx.Err()) {
			return nil, err
		}
		emit(PhaseSearch, w.front.size())
	} else {
		init, err := w.eng.InitialState()
		if err != nil {
			return nil, err
		}
		emit(PhaseSearch, 1)
		// Scoring the initial state builds the distance tables, which is
		// search-phase work: the frontier is seeded after the phase event.
		w.seed(init)
	}
	searchWorkers.Add(1)
	found, outcome := w.runLoop()
	searchWorkers.Add(-1)
	res := &Result{
		Found:                found,
		Outcome:              outcome,
		Duration:             time.Since(start),
		IntermediateGoalSets: pl.nInter,
		Terminals:            map[symex.StateStatus]int64{},
		Workers:              1,
	}
	w.fold(res)
	if outcome == OutcomePreempted {
		ckStart := time.Now()
		blob, err := w.checkpoint(res)
		if err != nil {
			return nil, fmt.Errorf("search: encoding checkpoint: %w", err)
		}
		res.Checkpoint = blob
		res.CheckpointNanos = time.Since(ckStart).Nanoseconds()
	}
	return res, nil
}

// plan is the shared, read-only front half of a synthesis: goals, static
// analyses, the program's distance tables, and the virtual-queue layout.
// A sequential run builds one plan for its one VM; a frontier-parallel
// run builds one plan and hands it to every worker (cfa.Analysis and
// dist.Calculator are safe for concurrent readers).
type plan struct {
	prog     *Program
	rep      *report.Report
	goals    []mir.Loc
	analyses []*cfa.Analysis
	calc     *dist.Calculator
	// schedGuided gates the schedule-distance fitness component and the
	// FIFO aging pick: they apply to schedule-sensitive reports (deadlock,
	// race) on programs that actually synchronize. A program without sync
	// opcodes has no schedule to synthesize, and a plain crash search
	// keeps the pure data-distance ordering (§4.1's weighting is about
	// schedules, and reordering sequential searches only perturbs their
	// shedding decisions).
	schedGuided bool
	// queueGoals is one goal set per virtual queue: intermediate sets
	// first, then one per final goal (§3.4); nInter is where the final
	// queues start.
	queueGoals [][]mir.Loc
	nInter     int
}

// buildPlan runs the static front half: report goals, the program's
// distance tables (built by its first synthesis), per-goal reachability
// analyses over the call graph the tables were built on, and queue
// layout.
func buildPlan(prog *Program, rep *report.Report, opts Options) (*plan, error) {
	goals := rep.Goals()
	if len(goals) == 0 {
		return nil, fmt.Errorf("search: report has no goals")
	}
	calc := prog.tables.Get(prog.mir)
	var analyses []*cfa.Analysis
	for _, g := range goals {
		a, err := cfa.AnalyzeWith(calc.CallGraph(), g)
		if err != nil {
			return nil, err
		}
		analyses = append(analyses, a)
	}

	// Build the goal queues: one per intermediate goal set, one per final
	// goal (§3.4).
	var queueGoals [][]mir.Loc
	if !opts.Ablate.NoIntermediateGoals {
		for _, a := range analyses {
			queueGoals = append(queueGoals, a.IntermediateGoals...)
		}
	}
	nInter := len(queueGoals)
	for _, g := range goals {
		queueGoals = append(queueGoals, []mir.Loc{g})
	}
	return &plan{
		prog:     prog,
		rep:      rep,
		goals:    goals,
		analyses: analyses,
		calc:     calc,
		schedGuided: calc.HasSync() &&
			(rep.Kind == report.KindDeadlock || rep.Kind == report.KindRace),
		queueGoals: queueGoals,
		nInter:     nInter,
	}, nil
}

// newVM builds one worker's private symbolic VM over the shared plan: an
// engine wired to sol, its own scheduling-policy instance (policies carry
// mutable per-run stats), and its own race detector when enabled.
func (pl *plan) newVM(ctx context.Context, opts Options, sol *solver.Solver) (*symex.Engine, *race.Detector) {
	eng := symex.New(pl.prog.mir, sol)
	eng.Ctx = ctx
	var detector *race.Detector
	if opts.WithRaceDetector || pl.rep.Kind == report.KindRace {
		detector = race.NewDetector()
		eng.Race = detector
	}
	// The policies share the plan's Calculator: the graded §4.1
	// sync-distance metric ranks both their scheduling decisions and the
	// virtual-queue ordering. The BinarySchedDist ablation withholds it
	// so the policies fall back to the original near/far behavior.
	var polCalc *dist.Calculator
	if !opts.Ablate.BinarySchedDist {
		polCalc = pl.calc
	}
	switch {
	case opts.PreemptionBound > 0:
		eng.Policy = &sched.BoundedPolicy{Limit: opts.PreemptionBound}
	case pl.rep.Kind == report.KindDeadlock:
		eng.Policy = &sched.DeadlockPolicy{Goals: pl.goals, Dist: polCalc}
	case pl.rep.Kind == report.KindRace || detector != nil:
		// Race-directed scheduling also serves crash reports when race
		// detection is enabled (§4.2: detection can be turned on even when
		// debugging non-race bugs that manifest only under races).
		eng.Policy = &sched.RacePolicy{Prefix: pl.rep.CommonStackPrefix(), Goals: pl.goals, Dist: polCalc}
	}
	return eng, detector
}

// threadStack reads t's call stack into the worker's scratch. The slice
// is valid until the next call.
func (w *worker) threadStack(t *symex.Thread) []mir.Loc {
	w.stack = t.AppendStack(w.stack[:0])
	return w.stack
}

// frontierSamplePeriod is the pick-count cadence of flight-recorder
// frontier snapshots. Keying on picks (not wall time) is what keeps the
// trace byte-identical across replays of the same seed.
const frontierSamplePeriod = 256

// sampleFrontier records a frontier snapshot every frontierSamplePeriod
// picks. Every field is deterministic under strict replay: work counters,
// pool size, depth, best fitness, and the query count (queries are issued
// deterministically; only cache hits vary with solver warmth, and those
// never enter the trace).
func (w *worker) sampleFrontier() {
	if w.opts.Recorder == nil {
		return
	}
	w.allPicks++
	if w.allPicks%frontierSamplePeriod != 0 {
		return
	}
	w.opts.Recorder.Record(telemetry.Event{
		Kind:          telemetry.EventFrontier,
		Steps:         w.eng.Stats.Steps,
		States:        w.eng.Stats.States,
		Live:          w.front.size(),
		Depth:         w.maxDepth,
		BestDist:      w.bestFit,
		SolverQueries: int64(w.sol.Queries - w.base.queries),
	})
}

// runLoop is the sequential search loop, entered with a fresh frontier or
// a restored one. It drives the search to one of its outcomes and returns
// it with the found state, if any.
// Preemption is polled at the loop top only — after the context and
// step-cap checks, before the progress and sampling hooks — so a
// checkpoint never splits a quantum and the resumed iteration replays the
// hooks exactly once.
func (w *worker) runLoop() (*symex.State, Outcome) {
	for w.front.size() > 0 {
		if err := w.ctx.Err(); err != nil {
			return nil, ctxOutcome(err)
		}
		if w.eng.Stats.Steps > w.opts.MaxSteps {
			return nil, OutcomeStepCap
		}
		if w.opts.Preempt != nil && w.opts.Preempt() {
			return nil, OutcomePreempted
		}
		w.maybeProgress(time.Now())
		w.sampleFrontier()
		st, aged := w.front.pick(w.rng)
		if st == nil {
			break
		}
		w.spareKeys = w.front.spentKeys()
		if aged {
			w.agingPicks++
		}
		found, err := w.quantum(st)
		if err != nil {
			// The VM observed the context mid-quantum (the prompt-
			// cancellation path for long quanta and solver-heavy steps).
			return nil, ctxOutcome(w.ctx.Err())
		}
		if found != nil {
			return found, OutcomeFound
		}
		if w.front.size() > maxLiveStates {
			// Shed the worse half, as a frontier-parallel run does.
			w.sheds += int64(w.front.shedWorst())
			w.opts.Recorder.Record(telemetry.Event{
				Kind:   telemetry.EventShed,
				Steps:  w.eng.Stats.Steps,
				States: w.eng.Stats.States,
				Live:   w.front.size(),
				Depth:  w.maxDepth,
			})
		}
	}
	return nil, ranDry(w.sheds)
}

// maybeProgress emits a periodic PhaseSearch snapshot, rate-limited to one
// per progressInterval.
func (w *worker) maybeProgress(now time.Time) {
	if now.Sub(w.lastProgress) < progressInterval {
		return
	}
	w.lastProgress = now
	searchFrontier.Observe(int64(w.front.size()))
	if w.opts.OnProgress == nil {
		return
	}
	w.opts.OnProgress(ProgressEvent{
		Phase:         PhaseSearch,
		Time:          now,
		Elapsed:       now.Sub(w.start),
		Steps:         w.eng.Stats.Steps,
		States:        w.eng.Stats.States,
		Live:          w.front.size(),
		Depth:         w.maxDepth,
		BestDist:      w.bestFit,
		SolverQueries: w.sol.Queries - w.base.queries,
	})
}

// seed inserts the initial state, scored but never gated.
func (w *worker) seed(init *symex.State) {
	keys, _ := w.scoreState(init)
	w.insert(init, keys)
}

// insert adds an admitted live state with its keys to the frontier —
// this worker's own, or its frontier-parallel run's shared one — and
// only then lets it move the deepest path and the best final-goal
// fitness that progress events and the trace report.
func (w *worker) insert(st *symex.State, keys []esdKey) {
	if st.Steps > w.maxDepth {
		w.maxDepth = st.Steps
	}
	for q := w.nInter; q < len(keys); q++ {
		if keys[q].fit < w.bestFit {
			w.bestFit = keys[q].fit
		}
	}
	if w.run != nil {
		w.run.place(w, st, keys)
		return
	}
	w.front.insert(st, keys)
}

// scoreState computes the per-queue ESD keys of a state (nil for the
// other strategies) and reports whether some final goal is at Infinite
// data distance from it. The schedule-distance component is
// queue-independent (it measures progress toward the reported bug's full
// goal set), so it is computed once per scoring and shared across the
// per-queue keys.
func (w *worker) scoreState(st *symex.State) (keys []esdKey, unreachable bool) {
	if w.opts.Strategy != StrategyESD {
		return nil, false
	}
	sched := w.schedDistance(st)
	keys, w.spareKeys = w.spareKeys, nil
	if len(keys) != len(w.queueGoals) {
		keys = make([]esdKey, len(w.queueGoals))
	}
	for q, goalSet := range w.queueGoals {
		d := w.stateDistance(st, goalSet)
		if q >= w.nInter && d >= dist.Infinite {
			unreachable = true
		}
		keys[q] = esdKey{fit: combineFitness(d, sched), id: st.ID}
	}
	return keys, unreachable
}

// agingPeriod is the cadence of the FIFO aging pick: every fourth pick
// runs the oldest live state instead of the fittest one. Three quarters of
// the budget follows the heuristic; the aging quarter guarantees drainage.
const agingPeriod = 4

// syncWeight is the §4.1 weighting between the two fitness components:
// one synchronization operation of schedule distance outweighs any
// realistic data distance (programs here are well under 2^18 instructions),
// so ordering is schedule-distance-first with data distance refining within
// each schedule band — the graded generalization of the old near/far bit.
const syncWeight int64 = 1 << 18

type esdKey struct {
	fit int64 // weighted schedule + data distance (lower is better)
	id  int
}

func (k esdKey) less(o esdKey) bool {
	if k.fit != o.fit {
		return k.fit < o.fit
	}
	return k.id < o.id
}

// combineFitness folds the graded schedule distance and the instruction
// data distance into one key, saturating at Infinite.
func combineFitness(dataD, syncD int64) int64 {
	if dataD >= dist.Infinite || syncD >= dist.Infinite/syncWeight {
		return dist.Infinite
	}
	return dataD + syncD*syncWeight
}

// schedDistance is the graded §4.1 schedule-distance of a state: the
// estimated number of synchronization operations separating the state from
// the reported bug's full goal configuration, summed over the goals.
//
// For deadlock reports a goal is *pinned* once a thread is blocked at that
// wait site — that part of the deadlock is done and contributes 0. An
// unpinned goal contributes the blocking acquisition itself (1) plus the
// fewest sync operations any live thread needs to arrive there. Counting
// the pin explicitly is what separates true hold-and-wait states from
// states whose threads merely stand at the goal sites holding nothing:
// both are positionally at distance zero, but only the former have
// schedule work behind them, and ranking them equal lets the ever-growing
// frontier of lock-free look-alikes starve the real deadlock lineages.
// Duplicate wait sites (two threads deadlocking at one lock statement)
// consume one pin each. Crash/race reports have a single goal no thread
// blocks at, so the metric degrades to the plain positional minimum.
//
// The metric is recomputed from the current stacks at every insertion and
// deliberately overrides the policy's sticky marks: a sticky "far"
// demotion (the binary scheme) starves the very states that complete a
// multi-party cycle. The BinarySchedDist ablation restores the historical
// behavior: the policy's bit (0 = near) and one undifferentiated far band.
func (w *worker) schedDistance(st *symex.State) int64 {
	if w.opts.Ablate.BinarySchedDist {
		if st.SchedDist == 0 {
			return 0
		}
		return symex.SchedDistFar
	}
	if !w.schedGuided {
		return 0
	}
	deadlock := w.rep.Kind == report.KindDeadlock
	var pins map[mir.Loc]int
	if deadlock {
		for _, t := range st.Threads {
			if t.Status != symex.ThreadBlockedMutex && t.Status != symex.ThreadBlockedCond {
				continue
			}
			if f := t.Top(); f != nil {
				if pins == nil {
					pins = make(map[mir.Loc]int, len(w.goals))
				}
				pins[f.Loc()]++
			}
		}
	}
	var total int64
	for _, g := range w.goals {
		if pins[g] > 0 {
			pins[g]--
			continue
		}
		best := int64(dist.Infinite)
		for _, t := range st.Threads {
			if t.Status == symex.ThreadExited {
				continue
			}
			if d := w.calc.SyncDistance(w.threadStack(t), g); d < best {
				best = d
				if best == 0 {
					break
				}
			}
		}
		if deadlock {
			best = add(best, 1)
		}
		total = add(total, best)
	}
	return total
}

// add is Infinite-saturating addition (mirrors dist's clamp).
func add(a, b int64) int64 {
	if a >= dist.Infinite || b >= dist.Infinite {
		return dist.Infinite
	}
	return a + b
}

// stateDistance estimates the state's proximity to the nearest member of
// goalSet: the minimum over live threads of Algorithm 1's stack-aware
// distance. The NoProximity ablation reads every state at distance 0, so
// the search runs without any distance information.
func (w *worker) stateDistance(st *symex.State, goalSet []mir.Loc) int64 {
	if w.opts.Ablate.NoProximity {
		return 0
	}
	best := int64(dist.Infinite)
	for _, t := range st.Threads {
		if t.Status == symex.ThreadExited {
			continue
		}
		stack := w.threadStack(t)
		for _, g := range goalSet {
			if d := w.calc.StateDistance(stack, g); d < best {
				best = d
			}
		}
	}
	return best
}

// quantum runs st for up to quantumSteps instructions, absorbing forks
// into the pool. It returns a state matching the report if one terminates
// this quantum, and a non-nil error only when the VM observed the
// cancelled context (every other engine error abandons the state in
// place).
func (w *worker) quantum(st *symex.State) (*symex.State, error) {
	for i := 0; i < quantumSteps; i++ {
		succ, err := w.eng.Step(st)
		if err != nil {
			if errors.Is(err, symex.ErrInterrupted) {
				return nil, err
			}
			// Engine-level errors abandon the state (they indicate an
			// internal inconsistency, not a program failure).
			w.stepErrors++
			return nil, nil
		}
		if len(succ) == 0 {
			return nil, nil
		}
		// succ[0] is st (possibly terminal); the rest are forks.
		for _, f := range succ[1:] {
			if done := w.admit(f); done != nil {
				return done, nil
			}
		}
		st = succ[0]
		if st.Status != symex.StateRunning {
			return w.terminal(st), nil
		}
	}
	w.keep(st)
	return nil, nil
}

// admit inserts a freshly forked state into the pool (or classifies it if
// it is already terminal).
func (w *worker) admit(f *symex.State) *symex.State {
	if f.Status != symex.StateRunning {
		return w.terminal(f)
	}
	w.keep(f)
	return nil
}

// keep runs a live state through the two pruning gates and inserts a
// survivor with the keys it was scored with (§3.2). The critical-edge
// gate runs first. The second gate reads the score: the proximity
// calculator's Infinite is an instruction-granular unreachability proof,
// stronger than the block-level gate because it also accounts for
// non-returning calls on every path (a thread stuck below a frame that
// can never return is dead even when its blocks look goal-reaching), so a
// state some final goal is at Infinite data distance from is abandoned
// too. Under the NoProximity ablation no distance is Infinite, so only
// the first gate runs.
func (w *worker) keep(st *symex.State) {
	gated := w.gated(st)
	if gated && !w.mayReachGoals(st) {
		w.prunedCritical++
		return
	}
	keys, unreachable := w.scoreState(st)
	if gated && unreachable {
		w.prunedInfinite++
		w.spareKeys = keys
		return
	}
	w.insert(st, keys)
}

// terminal classifies a finished state: the reported bug, a different bug,
// or an uninteresting exit.
func (w *worker) terminal(st *symex.State) *symex.State {
	w.terminals[st.Status]++
	if w.rep.Matches(st) {
		return st
	}
	if report.IsFailure(st) {
		var desc string
		if st.Crash != nil {
			desc = st.Crash.String()
		} else if st.Deadlock != nil {
			desc = st.Deadlock.String()
		}
		if len(w.otherBugs) < 64 {
			w.otherBugs = append(w.otherBugs, desc)
		}
	}
	return nil
}

// Prune-gate reasons (the esd_search_pruned_total label values).
const (
	pruneCritical = "critical_edge"
	pruneInfinite = "infinite_distance"
)

// gated reports whether the pruning gates may abandon st. Only ESD
// searches prune, and the NoCriticalEdges ablation turns both gates off.
// Deadlock schedule synthesis deliberately runs threads PAST their goal
// locks and rolls them back through K_S snapshots (§4.1); as long as a
// state can still be rolled back, static reachability of its current
// program points is not evidence of deadness.
func (w *worker) gated(st *symex.State) bool {
	if w.opts.Ablate.NoCriticalEdges || w.opts.Strategy != StrategyESD {
		return false
	}
	return w.rep.Kind != report.KindDeadlock || len(st.Snapshots) == 0
}

// mayReachGoals is the critical-edge gate: a state none of whose threads
// can still reach some goal is dead (§3.2, §3.3).
func (w *worker) mayReachGoals(st *symex.State) bool {
	for _, a := range w.analyses {
		reachable := false
		for _, t := range st.Threads {
			if t.Status == symex.ThreadExited {
				continue
			}
			if a.StackMayReachGoal(w.threadStack(t)) {
				reachable = true
				break
			}
		}
		if !reachable {
			return false
		}
	}
	return true
}
