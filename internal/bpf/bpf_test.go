package bpf

import (
	"context"
	"testing"
	"time"

	"esd/internal/report"
	"esd/internal/search"
	"esd/internal/usersite"
)

func TestGenerateCompiles(t *testing.T) {
	for _, p := range StandardConfigs()[:4] { // 2^4 .. 2^7 keep the test fast
		g, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := g.Compile()
		if err != nil {
			t.Fatalf("branches=%d: %v\n%s", p.Branches, err, g.Source[:min(len(g.Source), 2000)])
		}
		if err := prog.Verify(); err != nil {
			t.Fatal(err)
		}
		if g.Lines < p.Branches {
			t.Errorf("branches=%d: only %d lines", p.Branches, g.Lines)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Inputs: 4, Branches: 32, Threads: 2, Locks: 2, Seed: 9}
	g1, _ := Generate(p)
	g2, _ := Generate(p)
	if g1.Source != g2.Source {
		t.Fatal("generation is not deterministic in the seed")
	}
	p.Seed = 10
	g3, _ := Generate(p)
	if g1.Source == g3.Source {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestSizeScalesWithBranches(t *testing.T) {
	small, _ := Generate(Params{Inputs: 4, Branches: 16, Threads: 2, Locks: 2, Seed: 1})
	large, _ := Generate(Params{Inputs: 4, Branches: 256, Threads: 2, Locks: 2, Seed: 1})
	if large.Lines < 8*small.Lines {
		t.Errorf("size scaling too weak: %d vs %d lines", small.Lines, large.Lines)
	}
}

func TestUserSiteDeadlocksWithTriggerInputs(t *testing.T) {
	g, err := Generate(Params{Inputs: 4, Branches: 16, Threads: 2, Locks: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != report.KindDeadlock {
		t.Fatalf("kind = %v", rep.Kind)
	}
	if len(rep.WaitLocs) != 2 {
		t.Fatalf("expected 2 deadlocked threads, got %v", rep.WaitLocs)
	}
}

func TestStressWithoutTriggerInputsFindsNothing(t *testing.T) {
	// The §7.3 calibration: an hour of stress testing found no deadlock.
	// Scaled down: wrong inputs under many random schedules never fail.
	g, err := Generate(Params{Inputs: 4, Branches: 16, Threads: 2, Locks: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 100; seed++ {
		in := &usersite.Inputs{Named: map[string]int64{
			"in0": seed, "in1": -seed, "in2": seed * 3, "in3": 7,
		}}
		st, err := usersite.RunOnce(prog, in, usersite.Options{PreemptPercent: 45}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if report.IsFailure(st) {
			t.Fatalf("stress run %d failed — gates are not protecting the bug", seed)
		}
	}
}

func TestESDSynthesizesBPFDeadlock(t *testing.T) {
	g, err := Generate(Params{Inputs: 4, Branches: 16, Threads: 2, Locks: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Synthesize(context.Background(), search.NewProgram(prog), rep, search.Options{
		Strategy: search.StrategyESD,
		Budget:   120 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatalf("ESD failed on bpf(16 branches): steps=%d states=%d", res.Steps, res.StatesCreated)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
