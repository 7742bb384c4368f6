package apps

import (
	"context"
	"math/rand"
	"os"
	"testing"
	"time"

	"esd"
	"esd/internal/search"
)

// The profiling helpers run only with ESD_PROFILE set. Profile both with
//
//	ESD_PROFILE=1 go test -run TestProfile -memprofile mem.out -memprofilerate 65536 ./internal/apps/
//
// (or -cpuprofile cpu.out).

// TestProfileLs4 is a short bounded run for profiling the searcher on a
// hard crash bug.
func TestProfileLs4(t *testing.T) {
	if os.Getenv("ESD_PROFILE") == "" {
		t.Skip("profiling helper; set ESD_PROFILE=1 to run")
	}
	a := Get("ls4")
	prog, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Synthesize(context.Background(), search.NewProgram(prog), rep, search.Options{
		Strategy: search.StrategyESD, Budget: 20 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("found=%v steps=%d states=%d solverQ=%d hits=%d",
		res.Found != nil, res.Steps, res.StatesCreated, res.SolverQueries, res.SolverHits)
}

// TestProfileTriage replays perfbench triage-serve's seed-1 pass
// sequentially through one esd.Engine, as esdserve runs it without the
// HTTP layer: the 15 apps other than ls3 and ls4, seeds 30 to 59 each, in
// the pass's shuffled order. Many short syntheses of small apps make this
// the profile in which forks lead.
func TestProfileTriage(t *testing.T) {
	if os.Getenv("ESD_PROFILE") == "" {
		t.Skip("profiling helper; set ESD_PROFILE=1 to run")
	}
	const pass, seedsPerApp = 1, 30
	type request struct {
		prog *esd.Program
		rep  *esd.BugReport
		seed int64
	}
	eng := esd.New()
	defer eng.Close()
	var order []request
	for _, a := range All() {
		if a.Name == "ls3" || a.Name == "ls4" {
			continue
		}
		prog, err := eng.Compile(a.Name+".c", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Coredump()
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < seedsPerApp; k++ {
			order = append(order, request{prog, &esd.BugReport{R: rep}, pass*seedsPerApp + k})
		}
	}
	rng := rand.New(rand.NewSource(pass))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var steps, states int64
	for _, r := range order {
		res, err := eng.Synthesize(context.Background(), r.prog, r.rep, esd.WithSeed(r.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("%s seed %d: no execution", r.prog.MIR.Name, r.seed)
		}
		steps += res.Stats.Steps
		states += res.Stats.States
	}
	t.Logf("syntheses=%d steps=%d states=%d", len(order), steps, states)
}
