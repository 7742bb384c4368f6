package esd_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"esd"
)

// TestEngineCheckpointResume is the engine-level restart drill: a
// synthesis time-sliced into worst-case one-pick segments by WithPreempt,
// each checkpoint round-tripped through its encoded bytes (the job
// store's shape) and resumed with WithResume, must converge to a flight
// report byte-identical (DeterministicJSON) to an uninterrupted run's,
// and synthesize the same execution.
func TestEngineCheckpointResume(t *testing.T) {
	eng := esd.New()
	golden, goldenFR := synthReport(t, eng)

	prog, rep := appProgReport(t, "listing1")
	var resume *esd.Checkpoint
	for segments := 1; ; segments++ {
		if segments > 10_000 {
			t.Fatal("resume chain did not converge")
		}
		calls := 0
		opts := []esd.SynthOption{
			esd.WithBudget(time.Minute), esd.WithSeed(1), esd.WithTelemetry(),
			esd.WithPreempt(func() bool { calls++; return calls%2 == 0 }),
		}
		if resume != nil {
			opts = append(opts, esd.WithResume(resume))
		}
		res, err := eng.Synthesize(context.Background(), prog, rep, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Preempted {
			if res.Checkpoint == nil {
				t.Fatal("preempted result carries no checkpoint")
			}
			if res.Found || res.Execution != nil {
				t.Fatal("preempted result claims a synthesized execution")
			}
			if fr := res.Report(); fr == nil || fr.Outcome != "preempted" {
				t.Fatalf("preempted segment report = %+v, want outcome preempted", fr)
			}
			if resume, err = esd.DecodeCheckpoint(res.Checkpoint); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if segments < 2 {
			t.Fatalf("search finished in %d segment(s); preemption never engaged", segments)
		}
		if !res.Found {
			t.Fatal("resumed chain did not reproduce the bug")
		}
		if d1, d2 := detJSON(t, goldenFR), detJSON(t, res.Report()); !bytes.Equal(d1, d2) {
			t.Errorf("chained resume (%d segments) DeterministicJSON differs from uninterrupted:\n--- golden ---\n%s\n--- chain ---\n%s", segments, d1, d2)
		}
		if !golden.Execution.SameBug(res.Execution) {
			t.Error("resumed chain synthesized a different execution than the uninterrupted run")
		}
		return
	}
}
