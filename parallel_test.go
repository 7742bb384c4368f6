package esd_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"esd"
)

// synthReport runs one listing1 synthesis with the given options (plus
// telemetry) and returns the result and its flight report.
func synthReport(t *testing.T, eng *esd.Engine, opts ...esd.SynthOption) (*esd.Result, *esd.FlightReport) {
	t.Helper()
	prog, rep := appProgReport(t, "listing1")
	opts = append([]esd.SynthOption{
		esd.WithBudget(time.Minute), esd.WithSeed(1), esd.WithTelemetry(),
	}, opts...)
	res, err := eng.Synthesize(context.Background(), prog, rep, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("listing1 synthesis did not reproduce the bug")
	}
	return res, res.Report()
}

func detJSON(t *testing.T, fr *esd.FlightReport) []byte {
	t.Helper()
	d, err := fr.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestParallelOneIsSequential is the golden n=1 identity: frontier
// parallelism 1 must run the unchanged sequential searcher, so its
// flight report and synthesized execution are byte-identical to a plain
// run of the same seed.
func TestParallelOneIsSequential(t *testing.T) {
	eng := esd.New()
	seq, seqFR := synthReport(t, eng)
	par, parFR := synthReport(t, eng, esd.WithParallelism(1))

	if d1, d2 := detJSON(t, seqFR), detJSON(t, parFR); !bytes.Equal(d1, d2) {
		t.Errorf("n=1 DeterministicJSON differs from sequential:\n--- seq ---\n%s\n--- n=1 ---\n%s", d1, d2)
	}
	if !seq.Execution.SameBug(par.Execution) {
		t.Error("n=1 synthesized a different execution than sequential")
	}
	if par.Stats.Workers != 1 {
		t.Errorf("Workers = %d, want 1", par.Stats.Workers)
	}
}

// TestParallelSynthesisViaEngine exercises the full engine path at n=4:
// the run finds the bug, records its worker count, and the flight report
// carries the parallelism plus per-worker wall attribution (in the
// stripped Wall section, where schedule-dependent numbers belong).
func TestParallelSynthesisViaEngine(t *testing.T) {
	res, fr := synthReport(t, esd.New(), esd.WithParallelism(4))
	if res.Stats.Workers != 4 {
		t.Errorf("Stats.Workers = %d, want 4", res.Stats.Workers)
	}
	if fr.Parallelism != 4 {
		t.Errorf("report Parallelism = %d, want 4", fr.Parallelism)
	}
	if fr.Wall == nil || len(fr.Wall.Workers) != 4 {
		t.Fatalf("Wall.Workers rows = %v, want 4", fr.Wall)
	}
	won := 0
	for _, ww := range fr.Wall.Workers {
		if ww.Found {
			won++
		}
	}
	if won != 1 {
		t.Errorf("winning workers = %d, want exactly 1", won)
	}
	// The deterministic body must not leak schedule-dependent rows or
	// warmth-dependent shared-cache hit counts.
	d := detJSON(t, fr)
	if bytes.Contains(d, []byte(`"workers"`)) {
		t.Error("DeterministicJSON leaked the per-worker wall section")
	}
	if bytes.Contains(d, []byte(`shared_hits`)) {
		t.Error("DeterministicJSON leaked shared-cache hit counts")
	}
}
