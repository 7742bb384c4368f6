package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"esd"
	"esd/internal/apps"
	"esd/internal/jobs"
)

// getJob GETs /jobs/{id} and decodes the record; ok=false on 404.
func getJob(t *testing.T, baseURL, id string) (jobJSON, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return jobJSON{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d %s", id, resp.StatusCode, buf.String())
	}
	var j jobJSON
	if err := json.Unmarshal(buf.Bytes(), &j); err != nil {
		t.Fatalf("bad job record %s: %v", buf.String(), err)
	}
	return j, true
}

// pollJob polls /jobs/{id} until the predicate holds, failing the test on
// timeout or job disappearance.
func pollJob(t *testing.T, baseURL, id string, timeout time.Duration, until func(jobJSON) bool) jobJSON {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, ok := getJob(t, baseURL, id)
		if !ok {
			t.Fatalf("job %s disappeared while polling", id)
		}
		if until(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: predicate not reached within %s (state %s, resumes %d, preemptions %d)",
				id, timeout, j.State, j.Resumes, j.Preemptions)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submitJobReq POSTs /jobs and expects 202 with a fresh record.
func submitJobReq(t *testing.T, baseURL string, req map[string]any) jobJSON {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, body)
	}
	var j jobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("bad submit response %s: %v", body, err)
	}
	if j.ID == "" {
		t.Fatalf("submit response has no job ID: %s", body)
	}
	return j
}

// TestServiceJobsAPI drives the full asynchronous lifecycle over the wire:
// submit, poll to completion, fetch the result, list, delete.
func TestServiceJobsAPI(t *testing.T) {
	ts := newTestServer(t, Config{})

	j := submitJobReq(t, ts.URL, map[string]any{
		"app": "listing1", "budget_ms": 60000, "seed": 1,
	})
	if j.State != string(jobs.StateQueued) && j.State != string(jobs.StateRunning) {
		t.Errorf("fresh job state = %s", j.State)
	}

	final := pollJob(t, ts.URL, j.ID, 60*time.Second, func(j jobJSON) bool {
		return jobs.State(j.State).Terminal()
	})
	if final.State != string(jobs.StateDone) {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}
	var res struct {
		Found     bool            `json:"found"`
		Execution json.RawMessage `json:"execution"`
	}
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("bad job result %s: %v", final.Result, err)
	}
	if !res.Found || len(res.Execution) == 0 {
		t.Fatalf("job result incomplete: %s", final.Result)
	}
	if final.PeakInternerBytes <= 0 {
		t.Errorf("job record missing peak interner footprint: %+v", final)
	}

	// The record shows up in the listing.
	resp, body := func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), j.ID) {
		t.Fatalf("GET /jobs: %d %s", resp.StatusCode, body)
	}

	// DELETE removes it; a second DELETE and a GET both 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s: %d", j.ID, dresp.StatusCode)
	}
	if _, ok := getJob(t, ts.URL, j.ID); ok {
		t.Fatal("job record survived DELETE")
	}
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE: %d, want 404", dresp2.StatusCode)
	}
}

// TestServiceJobsValidation: a bad job fails at submission with a 4xx,
// never entering the store.
func TestServiceJobsValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name, req := range map[string]map[string]any{
		"unknown app":    {"app": "no-such-app"},
		"missing report": {"source": "int main() { return 0; }", "name": "m.c"},
		"stream":         {"app": "listing1", "stream": true},
		"bad strategy":   {"app": "listing1", "strategy": "bogus"},
	} {
		resp, body := postJSON(t, ts.URL+"/jobs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestServiceJobEvents follows a job over SSE: every event is a job
// record, and the stream ends with a terminal one.
func TestServiceJobEvents(t *testing.T) {
	ts := newTestServer(t, Config{})
	j := submitJobReq(t, ts.URL, map[string]any{
		"app": "listing1", "budget_ms": 60000, "seed": 1,
	})
	resp, err := http.Get(ts.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("events content-type %q", ct)
	}
	var last jobJSON
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if last.ID != j.ID {
			t.Fatalf("event for job %s, want %s", last.ID, j.ID)
		}
		events++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no events received")
	}
	if !jobs.State(last.State).Terminal() {
		t.Fatalf("stream ended on non-terminal state %s", last.State)
	}
	if last.State != string(jobs.StateDone) {
		t.Fatalf("job finished %s (error %q)", last.State, last.Error)
	}
}

// TestServiceJobDelete cancels an in-flight job via DELETE. (Timing may
// let the job finish first — the contract is only that DELETE removes the
// record either way.)
func TestServiceJobDelete(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 1})
	j := submitJobReq(t, ts.URL, map[string]any{
		"app": "ls3", "budget_ms": 120000, "seed": 1,
	})
	pollJob(t, ts.URL, j.ID, 30*time.Second, func(j jobJSON) bool {
		return j.State != string(jobs.StateQueued)
	})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job: %d", resp.StatusCode)
	}
	// The record is gone immediately; the worker's slice dies on its
	// cancelled context and must not resurrect it.
	time.Sleep(50 * time.Millisecond)
	if _, ok := getJob(t, ts.URL, j.ID); ok {
		t.Fatal("cancelled job record resurrected after DELETE")
	}
}

// TestServiceJobRestartRecovery is the service-level durability drill: a
// time-sliced job checkpoints into a file store, the server shuts down
// gracefully mid-search, and a fresh server over the same directory
// resumes the job to completion — with the identical execution a clean
// uninterrupted run produces (the determinism contract, over the wire).
func TestServiceJobRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sliced synthesis; run without -short")
	}
	if raceEnabled {
		// The sliced search re-interns its frontier every quantum; under the
		// race detector's slowdown that multiplies into minutes. Preempt /
		// resume / recovery interleavings are race-checked at the jobs and
		// search layers, where the runner is cheap.
		t.Skip("sliced multi-second synthesis too slow under -race")
	}
	dir := t.TempDir()
	st1, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{JobStore: st1, JobSlice: 200 * time.Millisecond, MaxConcurrent: 1}
	srv1 := New(esd.New(), cfg)
	ts1 := httptest.NewServer(srv1)

	j := submitJobReq(t, ts1.URL, map[string]any{
		"app": "ls3", "budget_ms": 120000, "seed": 1,
	})
	// Wait for at least one persisted checkpoint, then stop the first life.
	pollJob(t, ts1.URL, j.ID, 60*time.Second, func(j jobJSON) bool {
		if jobs.State(j.State).Terminal() {
			t.Fatalf("job finished before it could be interrupted (state %s); slice too long?", j.State)
		}
		return j.Preemptions >= 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := srv1.Close(ctx); err != nil {
		t.Fatalf("first server close: %v", err)
	}
	cancel()
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same directory, fresh store, engine and server.
	st2, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.JobStore = st2
	srv2 := New(esd.New(), cfg)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer st2.Close()

	if _, ok := getJob(t, ts2.URL, j.ID); !ok {
		t.Fatal("job record did not survive the restart")
	}
	final := pollJob(t, ts2.URL, j.ID, 120*time.Second, func(j jobJSON) bool {
		return jobs.State(j.State).Terminal()
	})
	if final.State != string(jobs.StateDone) {
		t.Fatalf("recovered job finished %s (error %q)", final.State, final.Error)
	}
	if final.Resumes < 1 {
		t.Errorf("recovered job reports %d resumes, want >= 1", final.Resumes)
	}
	var res struct {
		Found     bool            `json:"found"`
		Execution json.RawMessage `json:"execution"`
	}
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("bad recovered result %s: %v", final.Result, err)
	}
	if !res.Found {
		t.Fatalf("recovered job did not reproduce the bug: %s", final.Result)
	}

	// Determinism across the interruption: the execution must be
	// byte-identical to an uninterrupted synthesis of the same request.
	a := apps.Get("ls3")
	m, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := esd.New().Synthesize(context.Background(), &esd.Program{MIR: m}, &esd.BugReport{R: rep},
		esd.WithBudget(120*time.Second), esd.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !golden.Found {
		t.Fatal("golden run did not reproduce the bug")
	}
	goldenJSON, err := golden.Execution.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Byte-compare modulo formatting: the wire payload was re-indented by
	// the response encoder.
	var goldenC, recoveredC bytes.Buffer
	if err := json.Compact(&goldenC, goldenJSON); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&recoveredC, res.Execution); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(goldenC.Bytes(), recoveredC.Bytes()) {
		t.Errorf("recovered execution differs from uninterrupted run:\nrecovered: %s\ngolden:    %s",
			recoveredC.Bytes(), goldenC.Bytes())
	}
}

// TestServiceJobsObservability: a POST /jobs job moves the job counters
// while a synchronous /synthesize leaves them unchanged, /healthz carries
// the depth-by-state block, and /metrics exposes the esd_jobs_* series.
func TestServiceJobsObservability(t *testing.T) {
	ts := newTestServer(t, Config{})
	counters := []string{
		"esd_jobs_submitted_total",
		`esd_jobs_finished_total{state="done"}`,
	}
	before := scrapeMetrics(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/synthesize", map[string]any{
		"app": "listing1", "budget_ms": 60000, "seed": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d %s", resp.StatusCode, body)
	}
	synced := scrapeMetrics(t, ts.URL)
	for _, name := range counters {
		if synced[name] != before[name] {
			t.Errorf("%s moved across a synchronous synthesis: %v -> %v", name, before[name], synced[name])
		}
	}

	j := submitJobReq(t, ts.URL, map[string]any{
		"app": "listing1", "budget_ms": 60000, "seed": 1,
	})
	pollJob(t, ts.URL, j.ID, 60*time.Second, func(j jobJSON) bool {
		return jobs.State(j.State).Terminal()
	})
	after := scrapeMetrics(t, ts.URL)
	for _, name := range counters {
		if after[name] <= synced[name] {
			t.Errorf("%s did not increase across a job: %v -> %v", name, synced[name], after[name])
		}
	}
	for _, st := range jobs.States {
		name := `esd_jobs_state{state="` + string(st) + `"}`
		if _, ok := after[name]; !ok {
			t.Errorf("missing series %s", name)
		}
	}
	// A finished job stays listed until a client deletes it.
	if got := after[`esd_jobs_state{state="done"}`]; got != 1 {
		t.Errorf("the store holds %v done records, want the one job", got)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	var h struct {
		Jobs map[string]int `json:"jobs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &h); err != nil {
		t.Fatalf("bad healthz %s: %v", buf.String(), err)
	}
	if h.Jobs == nil {
		t.Fatalf("healthz missing jobs block: %s", buf.String())
	}
	for _, st := range jobs.States {
		if _, ok := h.Jobs[string(st)]; !ok {
			t.Errorf("healthz jobs block missing state %q: %s", st, buf.String())
		}
	}
}

// TestServiceSyncWritesNoJobs: synchronous requests run on their handler,
// so against a store on disk a plain and a streamed /synthesize and a
// two-report /batch submit no job, list none and append nothing to the
// store's log.
func TestServiceSyncWritesNoJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "jobs.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	opened := walSize()
	ts := newTestServer(t, Config{JobStore: st})
	before := scrapeMetrics(t, ts.URL)

	req := map[string]any{"app": "listing1", "budget_ms": 60000, "seed": 1}
	for _, stream := range []bool{false, true} {
		req["stream"] = stream
		resp, body := postJSON(t, ts.URL+"/synthesize", req)
		if resp.StatusCode != http.StatusOK || !bytes.Contains(bytes.ReplaceAll(body, []byte(" "), nil), []byte(`"found":true`)) {
			t.Fatalf("synthesize (stream %v): %d %s", stream, resp.StatusCode, body)
		}
	}
	rep, err := apps.Get("listing1").Coredump()
	if err != nil {
		t.Fatal(err)
	}
	repJSON, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/batch", map[string]any{
		"app": "listing1", "reports": []json.RawMessage{repJSON, repJSON}, "budget_ms": 60000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}

	if js := st.List(); len(js) != 0 {
		t.Errorf("the store lists %d jobs after synchronous requests, want none", len(js))
	}
	if got := walSize(); got != opened {
		t.Errorf("jobs.wal grew from %d to %d bytes across synchronous requests", opened, got)
	}
	after := scrapeMetrics(t, ts.URL)
	if name := "esd_jobs_submitted_total"; after[name] != before[name] {
		t.Errorf("%s moved across synchronous requests: %v -> %v", name, before[name], after[name])
	}
}

// TestServiceSyncBesideRunningJob: with one admission slot and one job
// worker held by an unsliced ls4 job, a synchronous /synthesize runs at
// once on its handler instead of queueing behind the job.
func TestServiceSyncBesideRunningJob(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 1, JobSlice: -1})
	j := submitJobReq(t, ts.URL, map[string]any{
		"app": "ls4", "budget_ms": 600000, "seed": 1,
	})
	running := func(j jobJSON) bool {
		if jobs.State(j.State).Terminal() {
			t.Fatalf("the ls4 job ended (%s) while the test needed it running", j.State)
		}
		return j.State == string(jobs.StateRunning)
	}
	pollJob(t, ts.URL, j.ID, 30*time.Second, running)

	resp, body := postJSON(t, ts.URL+"/synthesize", map[string]any{
		"app": "listing1", "budget_ms": 60000, "seed": 1,
	})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"found": true`) {
		t.Fatalf("synthesize beside a running job: %d %s", resp.StatusCode, body)
	}
	if cur, ok := getJob(t, ts.URL, j.ID); !ok || !running(cur) {
		t.Errorf("the ls4 job reads %q after the synchronous request, want running", cur.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s: %d", j.ID, dresp.StatusCode)
	}
}
