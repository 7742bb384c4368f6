package wal_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"esd/internal/expr"
	"esd/internal/jobs"
	"esd/internal/pcache"
)

// The two stores' file shapes, written out here so the tests pin them.

type jobsSnap struct {
	Schema string      `json:"schema"`
	Jobs   []*jobs.Job `json:"jobs"`
}

type jobsLine struct {
	Job    *jobs.Job `json:"job,omitempty"`
	Delete string    `json:"delete,omitempty"`
}

type factsSnap struct {
	Schema  string `json:"schema"`
	Entries []fact `json:"entries"`
}

type fact struct {
	FP    string           `json:"fp"`
	Keys  []string         `json:"k"`
	Res   string           `json:"r"`
	Model map[string]int64 `json:"m,omitempty"`
}

var factsSchema = fmt.Sprintf("esd.pcache/v1.k%d", expr.StructKeyVersion)

// logLines splits a log as replay reads it: a final line needs no newline.
func logLines(log []byte) [][]byte {
	ls := bytes.Split(log, []byte{'\n'})
	if len(ls[len(ls)-1]) == 0 {
		ls = ls[:len(ls)-1]
	}
	return ls
}

// replayJobs is the job store's recovery rule: the snapshot's jobs, then
// each log line up to the first that does not decode. ok is false when
// the snapshot cannot be read, which fails Open.
func replayJobs(snap, log []byte) (out map[string]*jobs.Job, ok bool) {
	out = map[string]*jobs.Job{}
	if snap != nil {
		var s jobsSnap
		if json.Unmarshal(snap, &s) != nil || s.Schema != "esd.jobs/v1" || slices.Contains(s.Jobs, nil) {
			return nil, false
		}
		for _, j := range s.Jobs {
			out[j.ID] = j
		}
	}
	for _, line := range logLines(log) {
		var rec jobsLine
		if json.Unmarshal(line, &rec) != nil {
			break
		}
		if rec.Delete != "" {
			delete(out, rec.Delete)
		} else if rec.Job != nil {
			out[rec.Job.ID] = rec.Job
		}
	}
	return out, true
}

// factKey is a well-formed record's lookup identity in canonical form,
// or "" for a record the cache must not serve.
func factKey(f fact) string {
	fp, err := strconv.ParseUint(f.FP, 16, 64)
	if err != nil || len(f.Keys) == 0 || (f.Res != "sat" && f.Res != "unsat") {
		return ""
	}
	id := fmt.Sprintf("%016x", fp)
	for _, k := range f.Keys {
		if len(k) != 32 || strings.Trim(strings.ToLower(k), "0123456789abcdef") != "" {
			return ""
		}
		id += "/" + strings.ToLower(k)
	}
	return id
}

// replayFacts is what the cache may serve: the well-formed records of a
// current-schema snapshot (or of none) and of the log that follows it, up
// to the log's first line that does not decode; the first record of a
// key set wins.
func replayFacts(snap, log []byte) map[string]fact {
	out := map[string]fact{}
	add := func(f fact) {
		if id := factKey(f); id != "" {
			if _, dup := out[id]; !dup {
				out[id] = f
			}
		}
	}
	if snap != nil {
		var s factsSnap
		if json.Unmarshal(snap, &s) != nil || s.Schema != factsSchema {
			return out
		}
		for _, f := range s.Entries {
			add(f)
		}
	}
	for _, line := range logLines(log) {
		var f fact
		if json.Unmarshal(line, &f) != nil {
			break
		}
		add(f)
	}
	return out
}

func jobsJSON(t *testing.T, js []*jobs.Job) map[string]string {
	out := map[string]string{}
	for _, j := range js {
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		out[j.ID] = string(b)
	}
	return out
}

// checkJobs opens a job store on dir and requires it to hold what
// replayJobs gives for snap and log.
func checkJobs(t *testing.T, dir string, snap, log []byte) {
	want, ok := replayJobs(snap, log)
	st, err := jobs.Open(dir)
	if !ok {
		if err == nil {
			st.Close()
			t.Fatal("jobs.Open accepted an unreadable snapshot")
		}
		return
	}
	if err != nil {
		t.Fatalf("jobs.Open: %v", err)
	}
	defer st.Close()
	got := jobsJSON(t, st.List())
	if w := jobsJSON(t, slices.Collect(maps.Values(want))); !maps.Equal(got, w) {
		t.Fatalf("job store holds\n%v\nwant\n%v", got, w)
	}
}

// checkFacts opens a solver cache on dir and requires it to serve exactly
// what replayFacts gives for snap and log.
func checkFacts(t *testing.T, dir string, snap, log []byte) {
	want := replayFacts(snap, log)
	s, err := pcache.Open(dir)
	if err != nil {
		t.Fatalf("pcache.Open: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.Entries != len(want) {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, len(want))
	}
	for _, f := range want {
		fp, _ := strconv.ParseUint(f.FP, 16, 64)
		keys := make([]expr.StructKey, len(f.Keys))
		for i, k := range f.Keys {
			keys[i].Hi, _ = strconv.ParseUint(k[:16], 16, 64)
			keys[i].Lo, _ = strconv.ParseUint(k[16:], 16, 64)
		}
		res, model, ok := s.ForProgram(fp).Lookup(keys)
		if !ok || res.String() != f.Res || !maps.Equal(model, f.Model) {
			t.Fatalf("lookup of %+v = %v %v %v", f, res, model, ok)
		}
	}
}

// writeStoreFiles writes snap and log as both stores' files in a fresh
// directory; nil leaves a file out.
func writeStoreFiles(t *testing.T, snap, log []byte) string {
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"jobs.snap": snap, "jobs.wal": log, "solver.snap": snap, "solver.wal": log,
	} {
		if data != nil {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// FuzzOpen feeds arbitrary snapshot and log bytes through both stores'
// Open. Neither may panic or hang; a job store that opens holds exactly
// what replaying the snapshot and then the log up to its first
// undecodable line gives; the solver cache never fails to open and
// serves exactly the well-formed records of a current-schema snapshot
// and of the log that follows it. Empty input leaves a file out.
// testdata/fuzz/FuzzOpen holds directories written by an earlier build.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, snap, log []byte) {
		if len(snap) == 0 {
			snap = nil
		}
		if len(log) == 0 {
			log = nil
		}
		dir := writeStoreFiles(t, snap, log)
		checkJobs(t, dir, snap, log)
		checkFacts(t, dir, snap, log)
	})
}

// copyDir copies a committed store directory, which Open compacts, into
// a fresh one.
func copyDir(t *testing.T, src string) string {
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func readFile(t *testing.T, path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sortedSnap decodes a snapshot generically and orders its records (the
// stores write them in map order), so two snapshots compare by content
// and shape, not by record order or whitespace.
func sortedSnap(t *testing.T, data []byte, records string, id func(map[string]any) string) map[string]any {
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	recs, _ := snap[records].([]any)
	slices.SortFunc(recs, func(a, b any) int {
		return strings.Compare(id(a.(map[string]any)), id(b.(map[string]any)))
	})
	return snap
}

// TestParentDirsOpen opens a -data-dir and a -cache-dir written by an
// earlier build, each with a non-empty log, and requires the snapshot
// Open compacts them into to match the one that build's Open wrote:
// the same records, file names, schema strings and record shapes.
func TestParentDirsOpen(t *testing.T) {
	t.Run("data-dir", func(t *testing.T) {
		src := "testdata/parent/data-dir"
		snap, log := readFile(t, filepath.Join(src, "jobs.snap")), readFile(t, filepath.Join(src, "jobs.wal"))
		if len(logLines(log)) == 0 {
			t.Fatal("committed data-dir has an empty log")
		}
		dir := copyDir(t, src)
		checkJobs(t, dir, snap, log)
		byID := func(m map[string]any) string { return m["id"].(string) }
		got := sortedSnap(t, readFile(t, filepath.Join(dir, "jobs.snap")), "jobs", byID)
		want := sortedSnap(t, readFile(t, "testdata/parent/data-dir-opened.snap"), "jobs", byID)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compacted jobs.snap\n%v\nwant\n%v", got, want)
		}
		if wal := readFile(t, filepath.Join(dir, "jobs.wal")); len(wal) != 0 {
			t.Fatalf("jobs.wal holds %q after open, want it empty", wal)
		}
	})
	t.Run("cache-dir", func(t *testing.T) {
		src := "testdata/parent/cache-dir"
		snap, log := readFile(t, filepath.Join(src, "solver.snap")), readFile(t, filepath.Join(src, "solver.wal"))
		if len(logLines(log)) == 0 {
			t.Fatal("committed cache-dir has an empty log")
		}
		dir := copyDir(t, src)
		checkFacts(t, dir, snap, log) // closes the store, which compacts it
		byKeys := func(m map[string]any) string { return fmt.Sprint(m["fp"], m["k"]) }
		got := sortedSnap(t, readFile(t, filepath.Join(dir, "solver.snap")), "entries", byKeys)
		want := sortedSnap(t, readFile(t, "testdata/parent/cache-dir-opened.snap"), "entries", byKeys)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compacted solver.snap\n%v\nwant\n%v", got, want)
		}
	})
}
