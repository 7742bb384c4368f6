package apps

import (
	"context"
	"fmt"
	"testing"
	"time"

	"esd/internal/search"
)

// seedMatrixApps is the quick synthesis subset: every deadlock app (the
// graded schedule metric's subjects) plus the fastest crash apps, so the
// matrix stays well under a minute.
var seedMatrixApps = []string{
	"listing1", "ghttpd", "sqlite", "hawknl", "pipeline", "logrot", "bank", "condvar",
}

// TestSeedMatrixQuickSynthesis runs the quick suite across seeds 1–5.
// Schedule-policy changes are especially prone to becoming seed-lucky:
// the virtual-queue pick is randomized, so a policy that only works when
// the right queue happens to be drawn first passes a single-seed test and
// regresses in the field. Every (app, seed) cell must synthesize.
func TestSeedMatrixQuickSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("5-seed synthesis matrix; skipped with -short")
	}
	for _, name := range seedMatrixApps {
		a := Get(name)
		if a == nil {
			t.Fatalf("unknown app %q in the seed matrix", name)
		}
		prog, err := a.Program()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Coredump()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				res, err := search.Synthesize(context.Background(), search.NewProgram(prog), rep, search.Options{
					Strategy: search.StrategyESD,
					Budget:   60 * time.Second,
					Seed:     seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Found == nil {
					t.Fatalf("seed %d did not synthesize %s (outcome %v steps=%d states=%d)",
						seed, name, res.Outcome, res.Steps, res.StatesCreated)
				}
			})
		}
	}
}
