package search

import "esd/internal/telemetry"

// Search/VM instruments, flushed once per synthesis from the run's final
// counters (see Synthesize) rather than incremented on the hot path: the
// per-run numbers already exist in symex.Stats and Result, so the registry
// costs nothing while the search loop runs.
var (
	vmSteps = telemetry.NewCounter("esd_vm_steps_total",
		"Instructions executed by the symbolic VM.")
	vmStates = telemetry.NewCounter("esd_vm_states_total",
		"Execution states created (initial states plus every fork).")
	vmConcretizations = telemetry.NewCounter("esd_vm_concretizations_total",
		"Symbolic terms pinned to concrete values via a solver model.")

	searchForks = telemetry.NewCounterVec("esd_search_forks_total",
		"State forks absorbed by the search, by kind (branch = symbolic branch, sched = scheduling-policy fork, eager = deadlock pre-acquisition fork, snapshot = K_S snapshot taken, snapshot_activation = snapshot rollback activated).",
		"kind")
	searchAgingPicks = telemetry.NewCounter("esd_search_aging_picks_total",
		"FIFO aging picks (the anti-starvation quarter of ESD picks).")
	searchPruned = telemetry.NewCounterVec("esd_search_pruned_total",
		"States abandoned by static unreachability gates, by gate (critical_edge = block-level reachability, infinite_distance = instruction-granular proximity proof).",
		"reason")
	searchSheds = telemetry.NewCounter("esd_search_sheds_total",
		"States dropped by pool-overflow shedding.")
	searchFrontier = telemetry.NewHistogram("esd_search_frontier_size",
		"Live-state pool size sampled on the progress cadence.", 1)
	searchWorkers = telemetry.NewGauge("esd_search_workers_active",
		"Search workers currently running: one per sequential synthesis, Parallelism per frontier-parallel synthesis.")
	searchDedupDrops = telemetry.NewCounter("esd_search_dedup_drops_total",
		"Forked states dropped by the cross-worker dedup set (frontier-parallel runs only).")

	syntheses = telemetry.NewCounterVec("esd_syntheses_total",
		"Completed synthesis runs, by outcome: found, preempted, cancelled, timeout, incomplete (no state left after some were shed over the live-state budget) or exhausted.",
		"outcome")
	synthesisDuration = telemetry.NewHistogram("esd_synthesis_duration_seconds",
		"End-to-end synthesis wall time.", 1e-9)
)

// flushTelemetry folds one finished run's counters into the process-wide
// registry. It reads only the Result (which already aggregates the VM,
// solver, and policy counters), so the sequential search and the
// frontier-parallel driver flush through the same code.
func flushTelemetry(res *Result) {
	vmSteps.Add(res.Steps)
	vmStates.Add(res.StatesCreated)
	vmConcretizations.Add(res.Concretizations)
	searchForks.With("branch").Add(res.BranchForks)
	searchForks.With("sched").Add(res.SchedForks)
	searchForks.With("eager").Add(int64(res.EagerForks))
	searchForks.With("snapshot").Add(int64(res.SnapshotsTaken))
	searchForks.With("snapshot_activation").Add(int64(res.SnapshotsActivated))
	searchAgingPicks.Add(res.AgingPicks)
	searchPruned.With(pruneCritical).Add(res.PrunedCritical)
	searchPruned.With(pruneInfinite).Add(res.PrunedInfinite)
	searchSheds.Add(res.Sheds)
	searchDedupDrops.Add(res.DedupDrops)
	syntheses.With(res.Outcome()).Inc()
	synthesisDuration.Observe(res.Duration.Nanoseconds())
}
