package pcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"esd/internal/expr"
	"esd/internal/solver"
)

func k(hi, lo uint64) expr.StructKey { return expr.StructKey{Hi: hi, Lo: lo} }

func TestRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	v := s.ForProgram(0xabc)
	satKeys := []expr.StructKey{k(1, 2), k(3, 4)}
	unsatKeys := []expr.StructKey{k(5, 6)}
	v.Publish(satKeys, solver.Sat, map[string]int64{"x": 7, "y": -3})
	v.Publish(unsatKeys, solver.Unsat, nil)
	v.Publish(satKeys, solver.Sat, map[string]int64{"x": 99}) // duplicate: no-op
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	v2 := s2.ForProgram(0xabc)
	res, model, ok := v2.Lookup(satKeys)
	if !ok || res != solver.Sat {
		t.Fatalf("sat entry after reopen: ok=%v res=%v", ok, res)
	}
	if model["x"] != 7 || model["y"] != -3 {
		t.Fatalf("model after reopen: %v (duplicate publish must not overwrite)", model)
	}
	if res, _, ok := v2.Lookup(unsatKeys); !ok || res != solver.Unsat {
		t.Fatalf("unsat entry after reopen: ok=%v res=%v", ok, res)
	}
	if _, _, ok := v2.Lookup([]expr.StructKey{k(9, 9)}); ok {
		t.Fatal("lookup of never-published keys hit")
	}
	st := s2.Stats()
	if st.Programs != 1 || st.Entries != 2 {
		t.Fatalf("stats after reopen: %+v", st)
	}
}

func TestProgramIsolation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	keys := []expr.StructKey{k(10, 20)}
	s.ForProgram(1).Publish(keys, solver.Unsat, nil)
	if _, _, ok := s.ForProgram(2).Lookup(keys); ok {
		t.Fatal("program 2 sees program 1's verdict")
	}
	if res, _, ok := s.ForProgram(1).Lookup(keys); !ok || res != solver.Unsat {
		t.Fatalf("program 1 misses its own verdict: ok=%v res=%v", ok, res)
	}
}

func TestTornWALTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a := []expr.StructKey{k(1, 1)}
	b := []expr.StructKey{k(2, 2)}
	view := s.ForProgram(7)
	view.Publish(a, solver.Unsat, nil)
	view.Publish(b, solver.Sat, map[string]int64{"n": 1})
	// Simulate a crash mid-append: chop the last WAL line in half. No
	// Close/Flush — the snapshot must still be from Open's compaction.
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatalf("reading WAL: %v", err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 WAL lines, got %d", len(lines))
	}
	torn := lines[0] + lines[1][:len(lines[1])/2]
	if err := os.WriteFile(wal, []byte(torn), 0o644); err != nil {
		t.Fatalf("writing torn WAL: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen over torn WAL: %v", err)
	}
	defer s2.Close()
	v2 := s2.ForProgram(7)
	if res, _, ok := v2.Lookup(a); !ok || res != solver.Unsat {
		t.Fatalf("intact record lost: ok=%v res=%v", ok, res)
	}
	if _, _, ok := v2.Lookup(b); ok {
		t.Fatal("torn record served")
	}
}

func TestForeignSchemaDiscarded(t *testing.T) {
	dir := t.TempDir()
	snap := snapFile{
		Schema: "esd.pcache/v1.k999",
		Entries: []record{{
			FP: "0000000000000001", Keys: []string{formatKey(k(1, 1))}, Res: "unsat",
		}},
	}
	data, _ := json.Marshal(&snap)
	if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
		t.Fatalf("seeding foreign snapshot: %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over foreign schema: %v", err)
	}
	defer s.Close()
	if _, _, ok := s.ForProgram(1).Lookup([]expr.StructKey{k(1, 1)}); ok {
		t.Fatal("entry from a foreign structural-key version served")
	}
	st := s.Stats()
	if st.Entries != 0 || st.LoadRejects == 0 {
		t.Fatalf("foreign snapshot not rejected: %+v", st)
	}
	// The store must be usable — and self-healing — afterwards.
	s.ForProgram(1).Publish([]expr.StructKey{k(1, 1)}, solver.Unsat, nil)
	if res, _, ok := s.ForProgram(1).Lookup([]expr.StructKey{k(1, 1)}); !ok || res != solver.Unsat {
		t.Fatalf("publish after discard: ok=%v res=%v", ok, res)
	}
}

func TestUnknownAndClosedDropped(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	v := s.ForProgram(3)
	v.Publish([]expr.StructKey{k(1, 1)}, solver.Unknown, nil)
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("Unknown verdict stored: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	v.Publish([]expr.StructKey{k(2, 2)}, solver.Unsat, nil) // must not panic
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("publish after Close stored: %+v", st)
	}
}

func TestSolverIntegration(t *testing.T) {
	// End-to-end through the real solver: verdicts published by one
	// process generation (store s1) must be hits in the next (s2),
	// surviving the collection of the terms they were built from.
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	build := func() *expr.Expr {
		x := expr.Var("pcx")
		return expr.Binary(expr.OpAnd,
			expr.Binary(expr.OpGt, x, expr.Const(10)),
			expr.Binary(expr.OpLt, x, expr.Const(20)))
	}
	c := build()
	sol := solver.New()
	sol.Persist = s1.ForProgram(42)
	if res, model := sol.Check([]*expr.Expr{c}); res != solver.Sat || model["pcx"] <= 10 || model["pcx"] >= 20 {
		t.Fatalf("cold solve: %v %v", res, model)
	}
	if sol.PersistentHits != 0 {
		t.Fatalf("cold solve counted a persistent hit")
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c, sol = nil, nil
	expr.TryReclaim()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	sol2 := solver.New()
	sol2.MaxNodes = 1 // force reliance on the cache tier
	sol2.Persist = s2.ForProgram(42)
	res, model := sol2.Check([]*expr.Expr{build()})
	if res != solver.Sat || model["pcx"] <= 10 || model["pcx"] >= 20 {
		t.Fatalf("warm solve: %v %v", res, model)
	}
	if sol2.PersistentHits == 0 {
		t.Fatal("warm solve took no persistent hit")
	}
	if st := s2.Stats(); st.Hits == 0 {
		t.Fatalf("store counted no hits: %+v", st)
	}
}
