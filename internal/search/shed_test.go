package search

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"esd/internal/symex"
	"esd/internal/telemetry"
)

var update = flag.Bool("update", false, "regenerate testdata/shed.golden.json")

// shedGolden is the pinned outcome of a sequential search that sheds.
var shedGolden = filepath.Join("testdata", "shed.golden.json")

// TestShedGolden pins the sequential search's shed path, which no
// determinism golden reaches: the triage false positive never deadlocks,
// so its live pool outgrows maxLiveStates and sheds until the step cap
// stops it. The flight-recorder events (shed events included) and the
// Result's work counters are compared with a file an earlier build wrote;
// which states a shed keeps, and the order it re-inserts them in (the
// aging FIFO sees it), both show in them. Regenerate with
// go test -run TestShedGolden -update, and only for a change that means
// to alter the search.
func TestShedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a 900,000-step search; run without -short")
	}
	if raceEnabled {
		// The search runs on one goroutine: the race detector would only
		// multiply its seconds.
		t.Skip("a multi-second single-goroutine search; too slow under -race")
	}
	prog, _, fp := triageReports()
	rec := telemetry.NewRecorder(0)
	res, err := Synthesize(context.Background(), NewProgram(prog), fp, Options{
		Strategy: StrategyESD,
		// The step cap ends the run; the budget is only a backstop.
		Budget:   10 * time.Minute,
		MaxSteps: 900_000,
		Seed:     1,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != nil || !res.TimedOut {
		t.Fatalf("the run ended %s, want the step cap to stop it", res.Outcome())
	}
	if res.Sheds == 0 {
		t.Fatal("the run never shed")
	}
	got, err := json.MarshalIndent(struct {
		Steps     int64                       `json:"steps"`
		States    int64                       `json:"states"`
		Sheds     int64                       `json:"sheds"`
		Pruned    int64                       `json:"pruned"`
		Terminals map[symex.StateStatus]int64 `json:"terminals"`
		Events    []telemetry.Event           `json:"events"`
	}{res.Steps, res.StatesCreated, res.Sheds, res.Pruned, res.Terminals, rec.Events()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(shedGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(shedGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this run:\n--- golden ---\n%s\n--- got ---\n%s", shedGolden, want, got)
	}
}
