package esd_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"esd"
	"esd/internal/apps"
)

// synthWithTelemetry runs one listing1 synthesis with the flight recorder
// attached and returns its report. The program comes from eng's compile
// memo, so every call on one engine synthesizes the same program.
func synthWithTelemetry(t *testing.T, eng *esd.Engine) (*esd.Result, *esd.FlightReport) {
	t.Helper()
	_, rep := appProgReport(t, "listing1")
	a := apps.Get("listing1")
	prog, err := eng.Compile(a.Name+".c", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Synthesize(context.Background(), prog, rep,
		esd.WithBudget(time.Minute), esd.WithSeed(1), esd.WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("listing1 synthesis did not reproduce the bug")
	}
	fr := res.Report()
	if fr == nil {
		t.Fatal("Report() = nil with WithTelemetry")
	}
	return res, fr
}

// TestFlightReportContents checks the report carries the run's summary
// counters: the solver-vs-search wall split and per-policy fork counts
// (the ISSUE's acceptance numbers).
func TestFlightReportContents(t *testing.T) {
	res, fr := synthWithTelemetry(t, esd.New())

	if fr.Schema != "esd.flight/v1" {
		t.Errorf("Schema = %q", fr.Schema)
	}
	if fr.Outcome != "found" {
		t.Errorf("Outcome = %q, want found", fr.Outcome)
	}
	if fr.Steps != res.Stats.Steps || fr.States != res.Stats.States {
		t.Errorf("report work counters (%d steps, %d states) disagree with Stats (%d, %d)",
			fr.Steps, fr.States, res.Stats.Steps, res.Stats.States)
	}
	if fr.Solver.Queries != int64(res.Stats.SolverQueries) {
		t.Errorf("Solver.Queries = %d, want %d", fr.Solver.Queries, res.Stats.SolverQueries)
	}
	if _, ok := fr.Forks["branch"]; !ok {
		t.Errorf("Forks missing the branch kind: %v", fr.Forks)
	}
	if len(fr.Trace) == 0 {
		t.Error("empty trace")
	}
	last := fr.Trace[len(fr.Trace)-1]
	if last.Kind != "phase" || last.Phase != "done" {
		t.Errorf("trace should end at the done phase transition, got %+v", last)
	}
	w := fr.Wall
	if w == nil {
		t.Fatal("Wall section missing from a live run")
	}
	if w.TotalNS <= 0 || w.SearchNS < 0 || w.SolverNS < 0 {
		t.Errorf("implausible wall split: %+v", w)
	}
	if w.SearchNS+w.SolverNS > w.TotalNS {
		t.Errorf("search (%d) + solver (%d) exceed total (%d)", w.SearchNS, w.SolverNS, w.TotalNS)
	}
}

// TestFlightReportDeterministic is the golden double-replay: two runs of
// the same program, report, and seed must produce byte-identical
// DeterministicJSON (wall-clock and cache-warmth effects are confined to
// the stripped Wall section).
func TestFlightReportDeterministic(t *testing.T) {
	// One engine for both runs: the second run hits every warm cache
	// (compile memo, and the program's distance tables and idle solver),
	// which is exactly the nondeterminism the contract has to absorb.
	eng := esd.New()
	_, fr1 := synthWithTelemetry(t, eng)
	_, fr2 := synthWithTelemetry(t, eng)

	d1, err := fr1.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := fr2.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Errorf("DeterministicJSON differs across identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", d1, d2)
	}
}

// TestReportNilWithoutTelemetry pins the disabled path: no recorder, no
// report, no cost.
func TestReportNilWithoutTelemetry(t *testing.T) {
	prog, rep := appProgReport(t, "listing1")
	res, err := esd.New().Synthesize(context.Background(), prog, rep,
		esd.WithBudget(time.Minute), esd.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report() != nil {
		t.Fatal("Report() should be nil when telemetry is off")
	}
}
