package apps

import (
	"context"
	"testing"
	"time"

	"esd/internal/replay"
	"esd/internal/search"
	"esd/internal/solver"
	"esd/internal/trace"
)

// TestESDSynthesizesEveryBug is the repository's Table 1 + Figure 2
// correctness backbone: for every evaluated app, ESD must synthesize an
// execution matching the user-site coredump, and strict playback must
// deterministically reproduce the failure.
func TestESDSynthesizesEveryBug(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis of every bundled bug; skipped with -short")
	}
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			prog, err := a.Program()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := a.Coredump()
			if err != nil {
				t.Fatal(err)
			}
			// The paper's per-bug budget is 1 hour; 300s is the CI stand-in,
			// far above what any app needs: seed-1 ls4, the slowest, takes
			// about 2.7 s on 2 vCPU.
			res, err := search.Synthesize(context.Background(), search.NewProgram(prog), rep, search.Options{
				Strategy: search.StrategyESD,
				Budget:   300 * time.Second,
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Found == nil {
				t.Fatalf("ESD did not synthesize %s (outcome %v steps=%d states=%d otherBugs=%d)",
					a.Name, res.Outcome, res.Steps, res.StatesCreated, len(res.OtherBugs))
			}
			ex, err := trace.FromState(res.Found, solver.New())
			if err != nil {
				t.Fatal(err)
			}
			p, err := replay.NewPlayer(prog, ex, replay.Strict)
			if err != nil {
				t.Fatal(err)
			}
			final, err := p.Run(2_000_000)
			if err != nil {
				t.Fatalf("playback diverged: %v", err)
			}
			if !rep.Matches(final) {
				t.Fatalf("playback of %s does not match the report: %s", a.Name, final.Summary())
			}
		})
	}
}

// TestLsBugsAreDistinct ensures the four injected ls bugs produce four
// different fault locations (distinct Figure 2 targets).
func TestLsBugsAreDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, name := range []string{"ls1", "ls2", "ls3", "ls4"} {
		rep, err := Get(name).Coredump()
		if err != nil {
			t.Fatal(err)
		}
		key := rep.FaultLoc.String()
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s crash at the same location %s", prev, name, key)
		}
		seen[key] = name
	}
}
