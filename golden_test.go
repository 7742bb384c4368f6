package esd_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"esd"
)

var update = flag.Bool("update", false, "regenerate the testdata/golden determinism goldens")

// goldenRuns are the seed-1 syntheses pinned byte for byte under
// testdata/golden: the ESD strategy across the crash, deadlock, race and
// coreutils apps, plus the RandomPath + preemption-bound baseline on one
// crash and one deadlock app.
var goldenRuns = []struct {
	name string
	app  string
	opts []esd.SynthOption
}{
	{name: "listing1", app: "listing1"},
	{name: "sqlite", app: "sqlite"},
	{name: "pipeline", app: "pipeline"},
	{name: "condvar", app: "condvar"},
	{name: "bank", app: "bank"},
	{name: "logrot", app: "logrot"},
	{name: "ls1", app: "ls1"},
	{name: "ghttpd", app: "ghttpd"},
	{name: "paste", app: "paste"},
	{name: "listing1-randpath-pb2", app: "listing1", opts: []esd.SynthOption{esd.WithStrategy(esd.RandomPath), esd.WithPreemptionBound(2)}},
	{name: "sqlite-randpath-pb2", app: "sqlite", opts: []esd.SynthOption{esd.WithStrategy(esd.RandomPath), esd.WithPreemptionBound(2)}},
}

// TestDeterminismGoldens compares each run's flight-report
// DeterministicJSON and execution file with the committed goldens. Unlike
// the double-replay tests, which compare two runs of one build, these
// bytes were produced by an earlier build, so a change that alters the
// search in every run alike still fails here. Regenerate with
// go test -run TestDeterminismGoldens -update, and only for a change that
// means to alter the search.
func TestDeterminismGoldens(t *testing.T) {
	eng := esd.New()
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			prog, rep := appProgReport(t, g.app)
			opts := append([]esd.SynthOption{
				esd.WithBudget(2 * time.Minute), esd.WithSeed(1), esd.WithTelemetry(),
			}, g.opts...)
			res, err := eng.Synthesize(context.Background(), prog, rep, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found {
				t.Fatalf("%s did not reproduce its bug", g.name)
			}
			flight := detJSON(t, res.Report())
			exec, err := res.Execution.JSON()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g.name+".flight.json", flight)
			checkGolden(t, g.name+".exec.json", exec)
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\n--- golden ---\n%s\n--- got ---\n%s", path, want, got)
	}
}
