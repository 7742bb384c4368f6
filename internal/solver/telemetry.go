package solver

import "esd/internal/telemetry"

// Process-wide solver instruments. Per-Solver Queries/CacheHits/WallNanos
// fields stay the per-run attribution source (search reads their deltas);
// these aggregate the same events across every pooled solver so /metrics
// shows the fleet-wide solver-vs-search split.
var (
	solverQueries = telemetry.NewCounter("esd_solver_queries_total",
		"Satisfiability queries issued (Check, MayBeTrue and MustBeTrue calls).")
	solverWall = telemetry.NewCounter("esd_solver_wall_nanoseconds_total",
		"Cumulative wall time spent answering solver queries.")
	solverCacheHits = telemetry.NewCounterVec("esd_solver_cache_hits_total",
		"Memoized component answers, by cache tier (component = the solver's private memo, shared, persistent).",
		"cache")
	solverCacheMisses = telemetry.NewCounterVec("esd_solver_cache_misses_total",
		"Memoized component answers missed, by cache tier.",
		"cache")
	solverComponentSize = telemetry.NewHistogram("esd_solver_component_size",
		"Conjuncts per independence-partition component a query decided.", 1)

	// The shared layer's lookups happen only on private-component misses,
	// so shared hits+misses ≤ component misses by construction; the
	// persistent tier sits below shared, so persistent hits+misses ≤
	// shared misses.
	sharedPublishes = telemetry.NewCounter("esd_solver_shared_publishes_total",
		"Definite component verdicts published into shared cross-worker fact caches.")
	sharedEvictions = telemetry.NewCounter("esd_solver_shared_evictions_total",
		"Shared-cache publishes dropped at the per-shard entry cap (solved verdicts the run could not share).")
	persistVerifyRejects = telemetry.NewCounter("esd_solver_persistent_verify_rejects_total",
		"Persistent-tier Sat entries whose model failed re-verification by concrete evaluation and were discarded.")

	componentHits    = solverCacheHits.With("component")
	componentMisses  = solverCacheMisses.With("component")
	sharedHits       = solverCacheHits.With("shared")
	sharedMisses     = solverCacheMisses.With("shared")
	persistentHits   = solverCacheHits.With("persistent")
	persistentMisses = solverCacheMisses.With("persistent")
)
