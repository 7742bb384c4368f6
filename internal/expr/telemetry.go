package expr

import "esd/internal/telemetry"

// Registry views over the interner's footprint and traffic counters. The
// atomics in intern.go stay the single source of truth —
// InternerStats (the /healthz payload) and these scrape-time views read
// the same values, so the two surfaces cannot disagree.
func init() {
	telemetry.NewGaugeFunc("esd_interner_terms",
		"Interned terms in the global hash-consing table not yet collected.",
		func() int64 { return termCount.Load() })
	telemetry.NewGaugeFunc("esd_interner_bytes",
		"Estimated retained heap of interned terms and names.",
		func() int64 { return byteCount.Load() })
	telemetry.NewCounterFunc("esd_interner_hits_total",
		"Term constructions that found an already-published canonical node.",
		func() int64 { return internHits.Load() })
	telemetry.NewCounterFunc("esd_interner_misses_total",
		"Term constructions that created a new canonical node.",
		func() int64 { return internMisses.Load() })
}
