package apps

import (
	"context"
	"os"
	"testing"
	"time"

	"esd/internal/search"
)

// TestProfileLs4 is a short bounded run for profiling the searcher on a
// hard crash bug (go test -run TestProfileLs4 -cpuprofile cpu.out).
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
