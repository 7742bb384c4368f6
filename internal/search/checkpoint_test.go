package search

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"esd/internal/lang"
	"esd/internal/symex"
	"esd/internal/telemetry"
)

// detSummary is the deterministic slice of a search Result: everything
// that must be bit-identical between an uninterrupted run and any
// preempt/resume chain of the same seed. Wall-clock and cache-warmth
// fields (Duration, SolverWallNanos, SolverHits, SolverPersistentHits,
// CheckpointNanos) are deliberately absent.
type detSummary struct {
	Outcome            string
	Steps              int64
	States             int64
	BranchForks        int64
	SchedForks         int64
	SolverQueries      int
	Concretizations    int64
	MaxDepth           int64
	AgingPicks         int64
	Sheds              int64
	PrunedCritical     int64
	PrunedInfinite     int64
	StepErrors         int64
	Terminals          map[symex.StateStatus]int64
	OtherBugs          []string
	SnapshotsTaken     int
	SnapshotsActivated int
	EagerForks         int
	FoundID            int
	FoundSchedule      []symex.SchedSegment
	FoundInputs        []symex.InputRecord
	TraceEvents        []telemetry.Event
	TraceDropped       int
}

func summarize(t *testing.T, res *Result, rec *telemetry.Recorder) string {
	t.Helper()
	s := detSummary{
		Outcome:            res.Outcome(),
		Steps:              res.Steps,
		States:             res.StatesCreated,
		BranchForks:        res.BranchForks,
		SchedForks:         res.SchedForks,
		SolverQueries:      res.SolverQueries,
		Concretizations:    res.Concretizations,
		MaxDepth:           res.MaxDepth,
		AgingPicks:         res.AgingPicks,
		Sheds:              res.Sheds,
		PrunedCritical:     res.PrunedCritical,
		PrunedInfinite:     res.PrunedInfinite,
		StepErrors:         res.StepErrors,
		Terminals:          res.Terminals,
		OtherBugs:          res.OtherBugs,
		SnapshotsTaken:     res.SnapshotsTaken,
		SnapshotsActivated: res.SnapshotsActivated,
		EagerForks:         res.EagerForks,
		TraceEvents:        rec.Events(),
		TraceDropped:       rec.Dropped(),
	}
	if res.Found != nil {
		s.FoundID = res.Found.ID
		s.FoundSchedule = res.Found.Schedule
		s.FoundInputs = res.Found.Inputs
	}
	b, err := json.MarshalIndent(&s, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkpointOptions(rec *telemetry.Recorder) Options {
	return Options{
		Strategy: StrategyESD,
		Budget:   time.Minute,
		Seed:     1,
		Recorder: rec,
	}
}

// runUninterrupted is the golden run every chain is compared against.
func runUninterrupted(t *testing.T) string {
	t.Helper()
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)
	rec := telemetry.NewRecorder(0)
	res, err := Synthesize(context.Background(), NewProgram(prog), rep, checkpointOptions(rec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatal("uninterrupted run did not find the deadlock")
	}
	return summarize(t, res, rec)
}

// TestCheckpointResumeDeterminism preempts the listing1 deadlock search at
// several loop iterations, round-trips the checkpoint through its encoded
// bytes, resumes in a fresh worker (fresh solver, fresh recorder, fresh
// VM — everything a process restart would rebuild), and requires the final
// deterministic summary to be identical to the uninterrupted run's.
func TestCheckpointResumeDeterminism(t *testing.T) {
	golden := runUninterrupted(t)
	rep, _ := listing1Report(t)

	for _, preemptAt := range []int{1, 2, 5, 17, 100} {
		prog := lang.MustCompile("listing1.c", listing1)
		rec := telemetry.NewRecorder(0)
		opts := checkpointOptions(rec)
		calls := 0
		opts.Preempt = func() bool {
			calls++
			return calls == preemptAt
		}
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Preempted {
			// The search finished before the preemption point: the plain
			// result must already match the golden run.
			if got := summarize(t, res, rec); got != golden {
				t.Fatalf("preemptAt=%d: unpreempted run diverged from golden:\n%s\n---\n%s", preemptAt, got, golden)
			}
			continue
		}
		if res.Found != nil {
			t.Fatalf("preemptAt=%d: preempted result carries a Found state", preemptAt)
		}
		if res.Outcome() != "preempted" {
			t.Fatalf("preemptAt=%d: outcome %q, want preempted", preemptAt, res.Outcome())
		}

		ck, err := DecodeCheckpoint(res.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}

		// Resume in fresh everything (the process-restart shape).
		prog2 := lang.MustCompile("listing1.c", listing1)
		rec2 := telemetry.NewRecorder(0)
		opts2 := checkpointOptions(rec2)
		opts2.Resume = ck
		res2, err := Synthesize(context.Background(), NewProgram(prog2), rep, opts2)
		if err != nil {
			t.Fatal(err)
		}
		if got := summarize(t, res2, rec2); got != golden {
			t.Fatalf("preemptAt=%d: resumed run diverged from golden:\ngot:\n%s\n---\nwant:\n%s", preemptAt, got, golden)
		}
	}
}

// TestCheckpointChainedResume preempts every few iterations, resuming
// each checkpoint into the next segment, and requires the chain's final
// result to match the uninterrupted run bit for bit.
func TestCheckpointChainedResume(t *testing.T) {
	golden := runUninterrupted(t)
	rep, _ := listing1Report(t)

	var resume *Checkpoint
	segments := 0
	for {
		prog := lang.MustCompile("listing1.c", listing1)
		rec := telemetry.NewRecorder(0)
		opts := checkpointOptions(rec)
		opts.Resume = resume
		// Fire on every second poll: each segment runs exactly one pick
		// before handing back a checkpoint — the worst-case slice.
		calls := 0
		opts.Preempt = func() bool {
			calls++
			return calls%2 == 0
		}
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, opts)
		if err != nil {
			t.Fatal(err)
		}
		segments++
		if segments > 10_000 {
			t.Fatal("chain did not converge")
		}
		if !res.Preempted {
			if segments < 2 {
				t.Fatalf("search finished in %d segment(s); preemption never engaged", segments)
			}
			if got := summarize(t, res, rec); got != golden {
				t.Fatalf("chained resume (%d segments) diverged from golden:\ngot:\n%s\n---\nwant:\n%s", segments, got, golden)
			}
			return
		}
		// Round-trip through bytes every hop, as the job store would.
		if resume, err = DecodeCheckpoint(res.Checkpoint); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointRandomPathResume covers the non-ESD frontier codec: the
// RandomPath pool draws rng.Intn(len(pool)), so dead slots are serialized
// as tombstones to keep the resumed draw sequence aligned. Chained
// one-pick segments must still match the uninterrupted KC baseline.
func TestCheckpointRandomPathResume(t *testing.T) {
	rep, _ := listing1Report(t)
	kcOptions := func(rec *telemetry.Recorder) Options {
		return Options{
			Strategy:        StrategyRandomPath,
			PreemptionBound: 2,
			Budget:          time.Minute,
			Seed:            1,
			Recorder:        rec,
		}
	}

	prog := lang.MustCompile("listing1.c", listing1)
	goldenRec := telemetry.NewRecorder(0)
	goldenRes, err := Synthesize(context.Background(), NewProgram(prog), rep, kcOptions(goldenRec))
	if err != nil {
		t.Fatal(err)
	}
	golden := summarize(t, goldenRes, goldenRec)

	var resume *Checkpoint
	for segments := 1; ; segments++ {
		if segments > 10_000 {
			t.Fatal("chain did not converge")
		}
		prog := lang.MustCompile("listing1.c", listing1)
		rec := telemetry.NewRecorder(0)
		opts := kcOptions(rec)
		opts.Resume = resume
		calls := 0
		opts.Preempt = func() bool {
			calls++
			return calls%2 == 0
		}
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Preempted {
			if segments < 2 {
				t.Fatalf("search finished in %d segment(s); preemption never engaged", segments)
			}
			if got := summarize(t, res, rec); got != golden {
				t.Fatalf("RandomPath chain (%d segments) diverged from golden:\ngot:\n%s\n---\nwant:\n%s", segments, got, golden)
			}
			return
		}
		if resume, err = DecodeCheckpoint(res.Checkpoint); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointCompatibility rejects resumes whose options or program
// would not replay the checkpointed search.
func TestCheckpointCompatibility(t *testing.T) {
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)
	opts := checkpointOptions(nil)
	fired := false
	opts.Preempt = func() bool {
		if fired {
			return false
		}
		fired = true
		return true
	}
	res, err := Synthesize(context.Background(), NewProgram(prog), rep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Preempted {
		t.Fatal("search was not preempted")
	}
	ck, err := DecodeCheckpoint(res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	bad := checkpointOptions(nil)
	bad.Seed = 2
	bad.Resume = ck
	if _, err := Synthesize(context.Background(), NewProgram(prog), rep, bad); err == nil {
		t.Fatal("resume with a different seed was not rejected")
	}

	other := lang.MustCompile("other.c", `int main() { return 0; }`)
	good := checkpointOptions(nil)
	good.Resume = ck
	if _, err := Synthesize(context.Background(), NewProgram(other), rep, good); err == nil {
		t.Fatal("resume against a different program was not rejected")
	}

	par := checkpointOptions(nil)
	par.Resume = ck
	par.Parallelism = 2
	if _, err := Synthesize(context.Background(), NewProgram(prog), rep, par); err == nil {
		t.Fatal("parallel resume was not rejected")
	}
}

// TestCheckpointRaceDetectorMismatch rejects a resume whose race-detector
// setting differs from the checkpointed run's, in both directions: the
// detector picks the scheduling policy of crash reports and carries state
// the checkpoint restores, so the resumed run would not be the same
// search.
func TestCheckpointRaceDetectorMismatch(t *testing.T) {
	rep, _ := listing1Report(t)
	prog := lang.MustCompile("listing1.c", listing1)
	for _, on := range []bool{true, false} {
		opts := checkpointOptions(nil)
		opts.WithRaceDetector = on
		opts.Preempt = func() bool { return true }
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Preempted {
			t.Fatal("search was not preempted")
		}
		ck, err := DecodeCheckpoint(res.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		if ck.WithRace != on {
			t.Fatalf("checkpoint records race detection %v, the run had %v", ck.WithRace, on)
		}
		resume := checkpointOptions(nil)
		resume.WithRaceDetector = !on
		resume.Resume = ck
		_, err = Synthesize(context.Background(), NewProgram(prog), rep, resume)
		if err == nil || !strings.Contains(err.Error(), "race detection") {
			t.Errorf("checkpoint race detection %v, resume request %v: error %v, want a race-detection mismatch", on, !on, err)
		}
	}
}

// TestCheckpointPreemptStress drives preemption from another goroutine on
// a short wall-clock cadence (the job scheduler's shape, exercised under
// -race) and checks the chain still converges to the golden result.
func TestCheckpointPreemptStress(t *testing.T) {
	golden := runUninterrupted(t)
	rep, _ := listing1Report(t)

	var resume *Checkpoint
	for segments := 1; ; segments++ {
		if segments > 10_000 {
			t.Fatal("stress chain did not converge")
		}
		prog := lang.MustCompile("listing1.c", listing1)
		rec := telemetry.NewRecorder(0)
		opts := checkpointOptions(rec)
		opts.Resume = resume

		// The flag flips on another goroutine (the job scheduler's shape);
		// the polls>1 guard guarantees every segment runs at least one
		// iteration, so the chain always makes progress.
		var stop atomic.Bool
		timer := time.AfterFunc(time.Millisecond, func() { stop.Store(true) })
		polls := 0
		opts.Preempt = func() bool { polls++; return polls > 1 && stop.Load() }
		res, err := Synthesize(context.Background(), NewProgram(prog), rep, opts)
		timer.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Preempted {
			if got := summarize(t, res, rec); got != golden {
				t.Fatalf("stress chain (%d segments) diverged from golden:\ngot:\n%s\n---\nwant:\n%s", segments, got, golden)
			}
			return
		}
		if resume, err = DecodeCheckpoint(res.Checkpoint); err != nil {
			t.Fatal(err)
		}
	}
}
