package apps

import (
	"context"
	"fmt"
	"testing"
	"time"

	"esd/internal/replay"
	"esd/internal/search"
	"esd/internal/solver"
	"esd/internal/symex"
	"esd/internal/trace"
)

// TestConcurrencyAppsReplayDeterministically is the golden-trace guard for
// the multi-threaded apps: each synthesized schedule must replay strictly
// — same thread segments, same step counts — and two independent playbacks
// must agree instruction-for-instruction. A schedule representation bug
// (lost segment, off-by-one step accounting, nondeterministic sync order)
// shows up here before it corrupts any saved execution file.
func TestConcurrencyAppsReplayDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis + double strict replay of the deadlock apps; skipped with -short")
	}
	for _, name := range []string{"pipeline", "logrot", "bank", "condvar"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a := Get(name)
			prog, err := a.Program()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := a.Coredump()
			if err != nil {
				t.Fatal(err)
			}
			res, err := search.Synthesize(context.Background(), search.NewProgram(prog), rep, search.Options{
				Strategy: search.StrategyESD, Budget: 120 * time.Second, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Found == nil {
				t.Fatalf("not synthesized (outcome %v steps=%d)", res.Outcome, res.Steps)
			}
			st := res.Found
			var total int64
			for _, seg := range st.Schedule {
				total += seg.Steps
			}
			if total != st.Steps {
				t.Fatalf("schedule accounts %d steps, state has %d", total, st.Steps)
			}
			ex, err := trace.FromState(st, solver.New())
			if err != nil {
				t.Fatal(err)
			}
			// Two independent strict playbacks must agree with the report
			// and with each other.
			var finals []*symex.State
			for run := 0; run < 2; run++ {
				p, err := replay.NewPlayer(prog, ex, replay.Strict)
				if err != nil {
					t.Fatal(err)
				}
				final, err := p.Run(2_000_000)
				if err != nil {
					t.Fatalf("playback %d diverged: %v", run, err)
				}
				if !rep.Matches(final) {
					t.Fatalf("playback %d does not reproduce the deadlock: %s", run, final.Summary())
				}
				finals = append(finals, final)
			}
			if finals[0].Steps != finals[1].Steps {
				t.Fatalf("replays disagree on step count: %d vs %d", finals[0].Steps, finals[1].Steps)
			}
			if len(finals[0].SyncEvents) != len(finals[1].SyncEvents) {
				t.Fatalf("replays disagree on sync events: %d vs %d",
					len(finals[0].SyncEvents), len(finals[1].SyncEvents))
			}
			for i := range finals[0].SyncEvents {
				if finals[0].SyncEvents[i] != finals[1].SyncEvents[i] {
					t.Fatalf("sync event %d differs: %v vs %v",
						i, finals[0].SyncEvents[i], finals[1].SyncEvents[i])
				}
			}
		})
	}
}

// TestSqliteStrictReplayRegression guards against the input-sequencing
// divergence where concrete getenv consumption desynchronized synthesis
// and playback input numbering (fixed by recording InputRecords in both
// modes).
func TestSqliteStrictReplayRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full sqlite synthesis + replay; skipped with -short")
	}
	a := Get("sqlite")
	prog, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Synthesize(context.Background(), search.NewProgram(prog), rep, search.Options{
		Strategy: search.StrategyESD, Budget: 120 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatal("not synthesized")
	}
	st := res.Found
	var total int64
	for _, seg := range st.Schedule {
		total += seg.Steps
	}
	if total != st.Steps {
		t.Fatalf("schedule accounts %d steps, state has %d", total, st.Steps)
	}
	ex, err := trace.FromState(st, solver.New())
	if err != nil {
		t.Fatal(err)
	}

	p, err := replay.NewPlayer(prog, ex, replay.Strict)
	if err != nil {
		t.Fatal(err)
	}
	for !p.Done() {
		if err := p.StepInstr(); err != nil {
			t.Logf("replay state: %s", p.State().Summary())
			for _, l := range p.ThreadsSummary() {
				t.Logf("  %s", l)
			}
			t.Logf("replay steps so far: %d (schedule total %d)", p.State().Steps, total)
			t.Fatalf("diverged: %v", err)
		}
		if p.State().Steps > 500000 {
			t.Fatal("runaway")
		}
	}
	fmt.Println(p.Describe())
}
