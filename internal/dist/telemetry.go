package dist

import "esd/internal/telemetry"

// Distance-heuristic traffic instruments. Lookups count tables() calls —
// one per distance query reaching the memoized layer — split by metric
// kind, while goal builds count the cold computeGoal fixpoints; the gap
// between the two is the memoization effectiveness the hot-path design
// depends on. The shared-table counters are scrape-time views over the
// same atomics SharedCacheStats reads.
var (
	distLookups = telemetry.NewCounterVec("esd_dist_lookups_total",
		"Goal-table lookups served by the distance calculator, by metric kind.",
		"metric")
	distBuilds = telemetry.NewCounterVec("esd_dist_goal_builds_total",
		"Cold per-goal distance-table builds, by metric kind.",
		"metric")
)

func init() {
	telemetry.NewCounterFunc("esd_dist_shared_cache_hits_total",
		"Searches that found their program's distance tables already built.",
		func() int64 { h, _ := SharedCacheStats(); return h })
	telemetry.NewCounterFunc("esd_dist_shared_cache_misses_total",
		"Distance-table builds, one per program on its first search.",
		func() int64 { _, m := SharedCacheStats(); return m })
}
