package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"
	"time"

	"esd"
)

// The resume-ls3 chain must end in the execution an uninterrupted ls3
// synthesis at the same seed finds, after the same search: otherwise the
// workload would measure a different search, not checkpointing.
func TestResumeChainMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ls3 twice (~10 s)")
	}
	rr, err := setupResumeLS3(1)
	if err != nil {
		t.Fatal(err)
	}
	r := rr.(*seqRunner)
	ctx := context.Background()
	prog, err := r.eng.Compile(r.jobs[0].name, r.jobs[0].source)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := esd.ReportFromJSON(r.jobs[0].core)
	if err != nil {
		t.Fatal(err)
	}

	u := newUnitCtx(0)
	chained, err := r.chain(ctx, u, 0, 0, prog, rep)
	if err != nil {
		t.Fatal(err)
	}
	if segs := u.work["search.segments"]; segs < 2 {
		t.Fatalf("chain ran %d segments, want a preempted chain", segs)
	}
	straight, _, err := newUnitCtx(0).synthesize(ctx, esd.New(), 0, 0, prog, rep, false)
	if err != nil {
		t.Fatal(err)
	}
	if !chained.Found || !straight.Found {
		t.Fatalf("found: chain %v, uninterrupted %v", chained.Found, straight.Found)
	}
	a, err := chained.Execution.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := straight.Execution.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("the resumed chain synthesized a different execution than the uninterrupted run")
	}
	cs, ss := chained.Stats, straight.Stats
	if cs.Steps != ss.Steps || cs.States != ss.States || cs.BranchForks != ss.BranchForks || cs.SolverQueries != ss.SolverQueries {
		t.Errorf("work differs: chain steps %d states %d forks %d queries %d, uninterrupted %d %d %d %d",
			cs.Steps, cs.States, cs.BranchForks, cs.SolverQueries, ss.Steps, ss.States, ss.BranchForks, ss.SolverQueries)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"esd/internal/symex.(*Engine).Step":       "symex",
		"esd/internal/expr.intern":                "expr",
		"esd/internal/search.(*searcher).runLoop": "search",
		"esd/internal/report.(*Report).Matches":   "other",
		"esd.(*Engine).synthesizePinned":          "esd",
		"main.run":                                "other",
		"runtime.mallocgc":                        "",
		"encoding/json.Marshal":                   "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// attributeCPU must charge every sample of a real profile, so the module
// shares sum to the profile's total.
func TestAttributeCPUSumsToTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a second of synthesis")
	}
	j, err := appJob("ghttpd")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	r := &seqRunner{jobs: []job{j}}
	for start := time.Now(); time.Since(start) < time.Second; {
		if err := r.start(false); err != nil {
			t.Fatal(err)
		}
		if err := r.unit(context.Background(), newUnitCtx(0)); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	mods, err := attributeCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range p.samples {
		total += s.values[1] // cpu/nanoseconds
	}
	sum := 0.0
	for _, m := range modules {
		sum += mods[m]
	}
	if total == 0 || mods["symex"] == 0 {
		t.Fatalf("profile total %d ns, symex %.3f s: expected a profile of synthesis", total, mods["symex"])
	}
	if diff := sum - float64(total)/1e9; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("modules sum to %.6f s, profile total %.6f s", sum, float64(total)/1e9)
	}
	if len(mods) != len(modules) {
		t.Errorf("attribution produced %d modules, want %d", len(mods), len(modules))
	}
}

// A traced triage pass drives the server from two clients at once: every
// request must verify, and every one must be joined with the handler span
// the timing wrapper recorded for it.
func TestTriagePassTraced(t *testing.T) {
	rr, err := setupTriage(1)
	if err != nil {
		t.Fatal(err)
	}
	rr.stop()
	r := rr.(*triageRunner)
	r.order = r.order[:24]
	if err := r.start(true); err != nil {
		t.Fatal(err)
	}
	defer r.stop()
	u := newUnitCtx(0)
	u.tr = newTracer(time.Now())
	if err := r.unit(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	if len(u.errs) > 0 || u.attempted != len(r.order) {
		t.Fatalf("attempted %d of %d, failures %v", u.attempted, len(r.order), u.errs)
	}
	if len(u.handlerMS) != len(r.order) {
		t.Errorf("%d handler spans joined, want %d", len(u.handlerMS), len(r.order))
	}
	handlers := 0
	for _, sp := range u.tr.spans {
		if sp.Name == "service.handler" {
			handlers++
		}
	}
	if handlers != len(r.order) {
		t.Errorf("%d service.handler spans, want %d", handlers, len(r.order))
	}
	for _, share := range u.tr.uncoveredShares() {
		if share < 0 || share > 1 {
			t.Errorf("uncovered share %v outside [0, 1]", share)
		}
	}
}
