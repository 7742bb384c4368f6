package solver

import "esd/internal/expr"

// PersistentCache is the cross-run, cross-process fact tier: definite
// component verdicts keyed by the canonical structural keys of the
// component's conjuncts. The engine attaches one view per synthesis
// (scoped to the program's fingerprint — see internal/pcache), so two runs
// of the same program, even in different processes, share solved
// components.
//
// Contract:
//   - Lookup must return only entries previously Published under exactly
//     the same sorted key slice. The returned model is shared read-only.
//   - Publish is called only with definite verdicts (Sat with a verified
//     model, or Unsat); implementations should still drop Unknown
//     defensively. Duplicate publishes of the same key are idempotent —
//     verdicts are pure functions of the component, so whichever write
//     wins, the value is the same.
//   - Implementations must be safe for concurrent use: the engine
//     attaches the same view to every worker's solver.
//
// The solver does NOT trust Sat entries blindly: checkComponent re-runs
// the model through concrete evaluation against the live terms before
// serving a hit, so a corrupt or stale store degrades to misses (counted
// as VerifyRejects), never to wrong answers. Unsat entries cannot be
// re-verified; their safety rests on the 128-bit structural key width.
type PersistentCache interface {
	Lookup(keys []expr.StructKey) (Result, map[string]int64, bool)
	Publish(keys []expr.StructKey, res Result, model map[string]int64)
}
