// Package esd is an execution-synthesis debugger: given a program and a
// bug report (coredump), it automatically synthesizes an execution —
// concrete inputs plus a thread schedule — that deterministically
// reproduces the reported bug, and plays that execution back under a
// debugger-style interface.
//
// It is a from-scratch Go implementation of "Execution Synthesis: A
// Technique for Automated Software Debugging" (Zamfir & Candea, EuroSys
// 2010). Programs are written in MiniC (a C-like language with POSIX-style
// threads) and compiled to the MIR intermediate representation; synthesis
// combines static analysis (critical edges, intermediate goals) with
// proximity-guided multi-threaded symbolic execution.
//
// The entry point is the Engine: a long-lived, concurrency-safe synthesis
// core that amortizes compiled programs, per-program distance tables, and
// warm solver caches across requests, and supports context cancellation
// and streaming progress:
//
//	eng := esd.New()                          // one per process
//	prog, _ := eng.Compile("app.c", source)   // memoized by source
//	rep, _  := esd.ReportFromJSON(coredumpJSON)
//	res, _  := eng.Synthesize(ctx, prog, rep,
//		esd.WithBudget(2*time.Minute),
//		esd.OnProgress(func(ev esd.ProgressEvent) { log.Println(ev.Phase, ev.Steps) }))
//	player, _ := esd.NewPlayer(prog, res.Execution, esd.Strict)
//	final, _  := player.Run(1e6)   // deterministically reproduces the bug
//
// Many reports against one program — the §8 triage workload — are one
// Synthesize call each on the same engine, which shares the compiled
// program, its distance tables and the warm solvers across the calls.
// cmd/esdserve exposes the same engine over HTTP/JSON, running every
// request as a job on its worker pool, with SSE progress streaming.
//
// A single synthesis can also spend multiple cores: WithParallelism(n)
// runs n workers over one best-first frontier behind one lock (shared
// dedup, a pooled solver per worker, first-to-goal wins). See the
// package README's "Parallel synthesis" section for its determinism
// contract.
package esd

import (
	"fmt"
	"time"

	"esd/internal/expr"
	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/replay"
	"esd/internal/report"
	"esd/internal/search"
	"esd/internal/telemetry"
	"esd/internal/trace"
	"esd/internal/usersite"
)

// Program is a compiled MiniC program.
type Program struct {
	MIR *mir.Program
}

// CompileMiniC compiles MiniC source to a verified program.
func CompileMiniC(filename, source string) (*Program, error) {
	p, err := lang.Compile(filename, source)
	if err != nil {
		return nil, err
	}
	return &Program{MIR: p}, nil
}

// Dump renders the program's intermediate representation.
func (p *Program) Dump() string { return p.MIR.String() }

// NumInstrs returns the program's instruction count.
func (p *Program) NumInstrs() int { return p.MIR.NumInstrs() }

// ID returns a stable identifier derived from the program's structural
// fingerprint — the handle esdserve hands out from /compile and the key
// under which distance tables are shared across runs.
func (p *Program) ID() string {
	return fmt.Sprintf("%s-%016x", p.MIR.Name, p.MIR.Fingerprint())
}

// BugReport is a coredump-derived bug report (the input to synthesis).
type BugReport struct {
	R *report.Report
}

// ReportFromJSON parses a coredump file.
func ReportFromJSON(data []byte) (*BugReport, error) {
	r, err := report.Decode(data)
	if err != nil {
		return nil, err
	}
	return &BugReport{R: r}, nil
}

// JSON serializes the report.
func (b *BugReport) JSON() ([]byte, error) { return b.R.Encode() }

// String renders the report.
func (b *BugReport) String() string { return b.R.String() }

// Strategy selects the search strategy.
type Strategy = search.Strategy

// Search strategies: ESD's guided search and the KC baselines of §7.2.
const (
	ESD        = search.StrategyESD
	DFS        = search.StrategyDFS
	RandomPath = search.StrategyRandomPath
)

// Result is a successful or failed synthesis.
type Result struct {
	// Execution is the synthesized execution file (nil if not found).
	Execution *Execution
	// Found reports success.
	Found bool
	// TimedOut reports budget exhaustion (the synthesis budget or a
	// context deadline) as opposed to space exhaustion.
	TimedOut bool
	// Cancelled reports that the context was cancelled mid-synthesis —
	// distinct from TimedOut: the caller withdrew the request, the search
	// did not run out of budget or space.
	Cancelled bool
	// Stats summarizes the search effort.
	Stats Stats
	// OtherBugs are failures found that do not match the report.
	OtherBugs []string
	// Preempted reports that a WithPreempt run was parked mid-search:
	// nothing was found yet, and Checkpoint holds the serialized search,
	// ready for WithResume (decode with DecodeCheckpoint). Counters in
	// Stats are cumulative across the whole resume chain.
	Preempted bool
	// Checkpoint is the encoded search checkpoint of a preempted run
	// (nil otherwise). It is self-contained — constraints are re-interned
	// on load — so it outlives the run's terms and the process.
	Checkpoint []byte
	// CheckpointNanos is the wall-clock cost of building the checkpoint
	// (serialization only, not the search), for capacity planning of the
	// job scheduler's slice length.
	CheckpointNanos int64

	// report is the flight-recorder report, populated only when the call
	// ran with WithTelemetry.
	report *telemetry.Report
}

// FlightReport is the per-synthesis flight-recorder report: summary
// counters plus a ring-buffered trace of phase transitions and sampled
// frontier snapshots. Its DeterministicJSON is byte-identical across runs
// of the same program, report, and seed.
type FlightReport = telemetry.Report

// Report returns the flight-recorder report of a synthesis run with
// WithTelemetry, or nil when telemetry was off.
func (r *Result) Report() *FlightReport { return r.report }

// InternerStats is the global hash-consed term store's footprint.
type InternerStats = expr.Stats

// Stats summarizes search effort.
type Stats struct {
	Duration      time.Duration
	Steps         int64
	States        int64
	BranchForks   int64
	SolverQueries int
	// SolverCacheHits counts components answered by the solver's private
	// memo: a query adds one per component found there, so it varies with
	// how warm the pooled solver is.
	SolverCacheHits int
	// SolverPersistentHits counts component verdicts served from the
	// engine's persistent cross-run cache (WithPersistentCache; 0 when no
	// cache directory is configured or the run was cold).
	// SolverVerifyRejects counts persistent entries whose stored model
	// failed re-verification against the live terms and were discarded —
	// nonzero values mean the cache directory holds entries from a
	// diverged store; the run stays correct (rejects fall through to a
	// fresh solve) but warms more slowly.
	SolverPersistentHits int
	SolverVerifyRejects  int
	// SolverWallNanos is wall-clock time spent inside the constraint
	// solver (cumulative across a resume chain, like the other counters).
	// Wall-clock, so it varies run to run; the jobs subsystem records it
	// per job.
	SolverWallNanos int64
	// Workers is the number of frontier-parallel search workers the run
	// used (1 for a sequential search).
	Workers int
	// Sheds counts live states the search dropped over its live-state
	// budget. A run that found nothing with Sheds > 0 did not exhaust the
	// search space: the shed states were never explored.
	Sheds int64
	// Interner snapshots the process-wide term store after the run: the
	// terms live runs still hold plus the constant cache, since the garbage
	// collector reclaims every term nothing references (also surfaced by
	// esdserve's /healthz).
	Interner InternerStats
}

// Execution is a synthesized execution file (§5.1).
type Execution struct {
	E *trace.Execution
}

// ExecutionFromJSON parses an execution file.
func ExecutionFromJSON(data []byte) (*Execution, error) {
	ex, err := trace.Decode(data)
	if err != nil {
		return nil, err
	}
	return &Execution{E: ex}, nil
}

// JSON serializes the execution file.
func (e *Execution) JSON() ([]byte, error) { return e.E.Encode() }

// String summarizes the execution.
func (e *Execution) String() string { return e.E.String() }

// SameBug reports whether two synthesized executions reproduce the same
// bug — the automated triage/deduplication check (§8).
func (e *Execution) SameBug(o *Execution) bool { return e.E.Equal(o.E) }

// PlayMode selects schedule enforcement during playback.
type PlayMode = replay.Mode

// Playback modes (§5.1): Strict replays the exact serial schedule;
// HappensBefore enforces only the synchronization order.
const (
	Strict        = replay.Strict
	HappensBefore = replay.HappensBefore
)

// Player replays an execution deterministically with debugger affordances
// (breakpoints, stepping, backtraces).
type Player = replay.Player

// NewPlayer prepares playback of ex over prog.
func NewPlayer(prog *Program, ex *Execution, mode PlayMode) (*Player, error) {
	return replay.NewPlayer(prog.MIR, ex.E, mode)
}

// UserInputs are concrete inputs for a user-site run.
type UserInputs = usersite.Inputs

// SimulateUserSite runs prog natively (concrete inputs, randomly preempting
// scheduler) until the bug manifests, and returns the coredump-derived bug
// report — the starting point of the whole workflow.
func SimulateUserSite(prog *Program, in *UserInputs) (*BugReport, error) {
	rep, err := usersite.CoredumpFor(prog.MIR, in, usersite.Options{})
	if err != nil {
		return nil, err
	}
	return &BugReport{R: rep}, nil
}
