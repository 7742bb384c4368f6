package esd_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"esd"
)

// The parallel-synthesis bench harness: one wall-clock measurement per
// (app, mode) cell, emitted as BENCH_parallel.json. Gated on an env var
// because a cell is a full synthesis (seconds to minutes on the hard
// apps) — this is a reporting harness, not a unit test:
//
//	ESD_BENCH_PARALLEL=BENCH_parallel.json go test -run TestBenchParallel -timeout 30m .
//
// ESD_BENCH_PARALLEL_APPS overrides the app list (comma-separated;
// default ls4,pipeline,sqlite — the hard apps where intra-synthesis
// parallelism pays). CI's bench-smoke step runs it on a quick subset and
// uploads the JSON as an artifact.
//
// The harness is also the parallel-regression gate: a frontier n=4 run
// that is materially slower than the same app's sequential run fails the
// test (the solver-bound regression this repo once shipped — ls4 at n=4
// lost 3× to n=1 before workers shared a solver fact cache). Set
// ESD_BENCH_PARALLEL_BASELINE=<committed BENCH_parallel.json> to also
// emit a per-cell delta against the committed numbers next to the output
// (<out>.delta.json), which CI uploads as an artifact.

// benchSeed is the synthesis seed of every cell.
const benchSeed = 1

// benchRow is one BENCH_parallel.json record.
type benchRow struct {
	App  string `json:"app"`
	Mode string `json:"mode"` // seq | frontier
	// Workers is the frontier worker count (frontier mode).
	Workers int   `json:"workers,omitempty"`
	WallNS  int64 `json:"wall_ns"`
	Steps   int64 `json:"steps"`
	Found   bool  `json:"found"`
	Seed    int64 `json:"seed"`
	// SolverWallNS is wall time inside solver.Check, summed over every
	// solver the cell ran (all workers).
	SolverWallNS int64 `json:"solver_wall_ns,omitempty"`
	// SharedHits counts component verdicts reused from the run's shared
	// cross-worker solver cache.
	SharedHits int `json:"shared_hits,omitempty"`
	// SpeedupVsSeq is this row's sequential wall over its own (same app).
	SpeedupVsSeq float64 `json:"speedup_vs_seq,omitempty"`
}

// benchDelta is one <out>.delta.json record: a cell's wall time against
// the committed baseline's same cell.
type benchDelta struct {
	App        string  `json:"app"`
	Mode       string  `json:"mode"`
	Workers    int     `json:"workers,omitempty"`
	BaseWallNS int64   `json:"base_wall_ns"`
	WallNS     int64   `json:"wall_ns"`
	Ratio      float64 `json:"ratio"` // wall / base (<1 = faster than baseline)
}

// frontierGateSlack is the regression-gate tolerance: a frontier n=4
// cell fails the harness when its wall exceeds seq × slack + 250ms. The
// multiplicative slack absorbs shared-machine noise, the additive term
// keeps millisecond-scale apps (CI's smoke subset) from tripping on
// constant goroutine overhead; the bug this gate pins down was a 3×
// slowdown, far outside both.
const frontierGateSlack = 1.25

func TestBenchParallel(t *testing.T) {
	out := os.Getenv("ESD_BENCH_PARALLEL")
	if out == "" {
		t.Skip("set ESD_BENCH_PARALLEL=<output path> to run the parallel bench harness")
	}
	appList := "ls4,pipeline,sqlite"
	if v := os.Getenv("ESD_BENCH_PARALLEL_APPS"); v != "" {
		appList = v
	}

	type mode struct {
		name    string
		workers int
	}
	modes := []mode{
		{name: "seq"},
		{name: "frontier", workers: 2},
		{name: "frontier", workers: 4},
	}

	eng := esd.New()
	var rows []benchRow
	for _, name := range strings.Split(appList, ",") {
		name = strings.TrimSpace(name)
		prog, rep := appProgReport(t, name)
		var seqWall int64
		for _, m := range modes {
			opts := []esd.SynthOption{
				esd.WithBudget(5 * time.Minute), esd.WithSeed(benchSeed), esd.WithTelemetry(),
			}
			if m.workers > 1 {
				opts = append(opts, esd.WithParallelism(m.workers))
			}
			start := time.Now()
			res, err := eng.Synthesize(context.Background(), prog, rep, opts...)
			wall := time.Since(start).Nanoseconds()
			if err != nil {
				t.Fatalf("%s %s: %v", name, m.name, err)
			}
			row := benchRow{
				App: name, Mode: m.name, Workers: m.workers,
				WallNS: wall, Steps: res.Stats.Steps,
				Found: res.Found, Seed: benchSeed,
				SharedHits: res.Stats.SolverSharedHits,
			}
			if fr := res.Report(); fr != nil && fr.Wall != nil {
				row.SolverWallNS = fr.Wall.SolverNS
			}
			if m.name == "seq" {
				seqWall = wall
			} else if seqWall > 0 {
				row.SpeedupVsSeq = float64(seqWall) / float64(wall)
			}
			rows = append(rows, row)
			t.Logf("%-10s %-9s n=%d wall=%.2fs steps=%d found=%v shared=%d speedup=%.2f",
				name, m.name, m.workers,
				float64(wall)/1e9, res.Stats.Steps, res.Found, row.SharedHits, row.SpeedupVsSeq)

			// The regression gate: frontier n=4 must not lose to the same
			// app's sequential run (beyond noise slack) — widening the
			// pipeline may not make it slower.
			if m.name == "frontier" && m.workers == 4 && seqWall > 0 {
				limit := int64(float64(seqWall)*frontierGateSlack) + int64(250*time.Millisecond)
				if wall > limit {
					t.Errorf("parallel regression: %s frontier n=4 wall %.2fs exceeds seq %.2fs (limit %.2fs)",
						name, float64(wall)/1e9, float64(seqWall)/1e9, float64(limit)/1e9)
				}
			}
		}
	}

	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d rows)", out, len(rows))

	if base := os.Getenv("ESD_BENCH_PARALLEL_BASELINE"); base != "" {
		writeBenchDelta(t, base, out, rows)
	}
}

// writeBenchDelta emits <out>.delta.json comparing this run's cells to
// the committed baseline's matching cells. Informational, not a gate:
// absolute walls shift with the host, so the hard checks live on
// same-run ratios above; the delta is the artifact a reviewer reads.
func writeBenchDelta(t *testing.T, basePath, out string, rows []benchRow) {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		t.Logf("baseline %s unreadable, skipping delta: %v", basePath, err)
		return
	}
	var base []benchRow
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Logf("baseline %s unparsable, skipping delta: %v", basePath, err)
		return
	}
	key := func(r benchRow) string {
		return fmt.Sprintf("%s/%s/n%d", r.App, r.Mode, r.Workers)
	}
	baseBy := make(map[string]benchRow, len(base))
	for _, r := range base {
		baseBy[key(r)] = r
	}
	var deltas []benchDelta
	for _, r := range rows {
		b, ok := baseBy[key(r)]
		if !ok || b.WallNS <= 0 {
			continue
		}
		deltas = append(deltas, benchDelta{
			App: r.App, Mode: r.Mode, Workers: r.Workers,
			BaseWallNS: b.WallNS, WallNS: r.WallNS,
			Ratio: float64(r.WallNS) / float64(b.WallNS),
		})
	}
	data, err := json.MarshalIndent(deltas, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	deltaPath := out + ".delta.json"
	if err := os.WriteFile(deltaPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d cells vs %s)", deltaPath, len(deltas), basePath)
}
