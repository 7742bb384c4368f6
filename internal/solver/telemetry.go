package solver

import "esd/internal/telemetry"

// Process-wide solver instruments. Per-Solver Queries/CacheHits/WallNanos
// fields stay the per-run attribution source (search reads their deltas);
// these aggregate the same events across every solver so /metrics
// shows the fleet-wide solver-vs-search split.
var (
	solverQueries = telemetry.NewCounter("esd_solver_queries_total",
		"Satisfiability queries issued (Check, MayBeTrue and MustBeTrue calls).")
	solverWall = telemetry.NewCounter("esd_solver_wall_nanoseconds_total",
		"Cumulative wall time spent answering solver queries.")
	solverCacheHits = telemetry.NewCounterVec("esd_solver_cache_hits_total",
		"Memoized component answers, by cache tier (component = the solver's private memo, persistent).",
		"cache")
	solverCacheMisses = telemetry.NewCounterVec("esd_solver_cache_misses_total",
		"Memoized component answers missed, by cache tier.",
		"cache")
	solverComponentSize = telemetry.NewHistogram("esd_solver_component_size",
		"Conjuncts per independence-partition component a query decided.", 1)

	// The persistent tier is consulted only on private-component misses,
	// so persistent hits+misses ≤ component misses by construction.
	persistVerifyRejects = telemetry.NewCounter("esd_solver_persistent_verify_rejects_total",
		"Persistent-tier Sat entries whose model failed re-verification by concrete evaluation and were discarded.")

	componentHits    = solverCacheHits.With("component")
	componentMisses  = solverCacheMisses.With("component")
	persistentHits   = solverCacheHits.With("persistent")
	persistentMisses = solverCacheMisses.With("persistent")
)
