package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"esd"
	"esd/internal/apps"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(esd.New(), cfg))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestServiceSynthesizeApp is the HTTP analogue of the CI smoke step:
// synthesize the bundled listing1 bug end-to-end over the wire.
func TestServiceSynthesizeApp(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/synthesize", map[string]any{
		"app": "listing1", "budget_ms": 60000, "seed": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		Found     bool            `json:"found"`
		Execution json.RawMessage `json:"execution"`
		Stats     struct {
			Steps    int64 `json:"steps"`
			Interner struct {
				Terms int `json:"terms"`
			} `json:"interner"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if !res.Found {
		t.Fatalf("listing1 not found over HTTP: %s", body)
	}
	if len(res.Execution) == 0 {
		t.Fatal("no execution file in response")
	}
	if res.Stats.Interner.Terms <= 0 {
		t.Error("interner stats missing from result")
	}
	// The returned execution file must parse and replay.
	ex, err := esd.ExecutionFromJSON(res.Execution)
	if err != nil {
		t.Fatalf("execution round-trip: %v", err)
	}
	a := apps.Get("listing1")
	m, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	p, err := esd.NewPlayer(&esd.Program{MIR: m}, ex, esd.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(1_000_000); err != nil {
		t.Fatalf("playback of served execution diverged: %v", err)
	}
}

// TestServiceCompileThenSynthesize drives the two-step flow: /compile
// returns a program handle, /synthesize reuses it with an uploaded
// coredump.
func TestServiceCompileThenSynthesize(t *testing.T) {
	ts := newTestServer(t, Config{})
	a := apps.Get("listing1")
	rep, err := a.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	repJSON, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/compile", map[string]any{
		"name": "listing1.c", "source": a.Source,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %s", resp.StatusCode, body)
	}
	var comp struct {
		ProgramID string `json:"program_id"`
		Instrs    int    `json:"instrs"`
	}
	if err := json.Unmarshal(body, &comp); err != nil {
		t.Fatal(err)
	}
	if comp.ProgramID == "" || comp.Instrs == 0 {
		t.Fatalf("bad compile response: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/synthesize", map[string]any{
		"program_id": comp.ProgramID,
		"report":     json.RawMessage(repJSON),
		"budget_ms":  60000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"found": true`) {
		t.Fatalf("not found: %s", body)
	}
}

// TestServiceBatch fans several coredumps of one program out through
// /batch and checks every report reproduces.
func TestServiceBatch(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 2})
	a := apps.Get("listing1")
	rep, err := a.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	repJSON, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var reports []json.RawMessage
	for i := 0; i < 4; i++ {
		reports = append(reports, repJSON)
	}
	resp, body := postJSON(t, ts.URL+"/batch", map[string]any{
		"app": "listing1", "reports": reports, "budget_ms": 60000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Found bool   `json:"found"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Error != "" || !r.Found {
			t.Errorf("report %d: found=%v err=%q", i, r.Found, r.Error)
		}
	}
}

// TestServiceBatchRejectsStream: /batch has no progress stream, so a
// "stream": true batch request must be rejected with a 400 naming the
// limitation instead of silently ignoring the field (clients would wait
// on progress events that never arrive).
func TestServiceBatchRejectsStream(t *testing.T) {
	ts := newTestServer(t, Config{})
	a := apps.Get("listing1")
	rep, err := a.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	repJSON, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/batch", map[string]any{
		"app": "listing1", "reports": []json.RawMessage{repJSON},
		"stream": true, "budget_ms": 1000,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "stream") {
		t.Errorf("error does not name the stream limitation: %s", body)
	}

	// Streaming requested through the Accept header (the convention
	// /synthesize honors) must be rejected the same way, not silently
	// answered with plain JSON.
	data, _ := json.Marshal(map[string]any{
		"app": "listing1", "reports": []json.RawMessage{repJSON}, "budget_ms": 1000,
	})
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/batch", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Accept", "text/event-stream")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("Accept: text/event-stream batch: status %d, want 400", hresp.StatusCode)
	}
}

// TestServiceAppResolveMemoized: repeated {"app": X} requests must share
// one engine-compiled program — observable as exactly one compile plus
// cache hits in the engine counters — instead of wrapping a fresh program
// per request and bypassing the Compile memo.
func TestServiceAppResolveMemoized(t *testing.T) {
	eng := esd.New()
	ts := httptest.NewServer(New(eng, Config{}))
	t.Cleanup(ts.Close)
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/synthesize", map[string]any{
			"app": "listing1", "budget_ms": 60000, "seed": 1,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	st := eng.Stats()
	if st.ProgramsCompiled != 1 {
		t.Errorf("app program compiled %d times, want 1", st.ProgramsCompiled)
	}
	if st.CompileCacheHits < 2 {
		t.Errorf("compile cache hits = %d, want >= 2 (repeated app requests must share the memo)", st.CompileCacheHits)
	}
}

// TestServiceSSEStream asserts the streaming contract on the wire:
// progress events then exactly one result event, which reports the bug
// found.
func TestServiceSSEStream(t *testing.T) {
	ts := newTestServer(t, Config{})
	data, _ := json.Marshal(map[string]any{
		"app": "listing1", "budget_ms": 60000, "stream": true,
	})
	resp, err := http.Post(ts.URL+"/synthesize", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []string
	var lastData, progressData string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
			if len(events) > 0 && events[len(events)-1] == "progress" {
				progressData = lastData
			}
		}
	}
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	if events[len(events)-1] != "result" {
		t.Fatalf("last event = %q, want result (events: %v)", events[len(events)-1], events)
	}
	for _, e := range events[:len(events)-1] {
		if e != "progress" {
			t.Errorf("unexpected event %q before result", e)
		}
	}
	var res struct {
		Found bool `json:"found"`
	}
	if err := json.Unmarshal([]byte(lastData), &res); err != nil {
		t.Fatalf("bad result payload %q: %v", lastData, err)
	}
	if !res.Found {
		t.Fatalf("streamed result not found: %s", lastData)
	}
	// Progress events carry a wall-clock timestamp for client-side step
	// rates.
	if progressData != "" {
		var ev struct {
			TSMS int64 `json:"ts_ms"`
		}
		if err := json.Unmarshal([]byte(progressData), &ev); err != nil {
			t.Fatalf("bad progress payload %q: %v", progressData, err)
		}
		if ev.TSMS <= 0 {
			t.Errorf("progress event missing ts_ms: %s", progressData)
		}
	}
}

// TestServiceConcurrencyLimit: a saturated server sheds load with 429
// instead of queueing unboundedly.
func TestServiceConcurrencyLimit(t *testing.T) {
	srv := New(esd.New(), Config{MaxConcurrent: 1})
	// Occupy the only slot directly.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/synthesize", map[string]any{
		"app": "listing1", "budget_ms": 1000,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After")
	}
}

// TestServiceHealthz checks the health payload carries the interner and
// engine cache observability fields.
func TestServiceHealthz(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status           string `json:"status"`
		Capacity         int    `json:"capacity"`
		CompileCacheHits *int64 `json:"compile_cache_hits"`
		Interner         struct {
			Terms  int   `json:"terms"`
			Bytes  int64 `json:"bytes"`
			Shards int   `json:"shards"`
		} `json:"interner"`
		Engine struct {
			Synthesized int64 `json:"synthesized"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(buf.Bytes(), &h); err != nil {
		t.Fatalf("bad healthz %s: %v", buf.String(), err)
	}
	if h.Status != "ok" || h.Capacity != 3 {
		t.Errorf("healthz = %s", buf.String())
	}
	if h.Interner.Terms <= 0 || h.Interner.Bytes <= 0 || h.Interner.Shards <= 0 {
		t.Errorf("interner stats missing: %s", buf.String())
	}
	if h.CompileCacheHits == nil {
		t.Errorf("healthz missing promoted compile_cache_hits: %s", buf.String())
	}
}

// scrapeMetrics GETs /metrics and parses the Prometheus text exposition
// into series-name (including labels) → value, failing on any line that
// does not follow the format.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content-type = %q, want Prometheus text 0.0.4", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// A sample line is "<name>{labels} <value>" or "<name> <value>".
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		name, valStr := line[:i], line[i+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		if _, dup := out[name]; dup {
			t.Fatalf("duplicate series %q", name)
		}
		out[name] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServiceMetrics scrapes /metrics after two syntheses and checks the
// exposition parses, carries the key series (the ISSUE's acceptance list:
// solver traffic, per-policy fork counts, engine/service series), and
// that counters are monotonic across syntheses.
func TestServiceMetrics(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 3})
	synth := func() {
		resp, body := postJSON(t, ts.URL+"/synthesize", map[string]any{
			"app": "listing1", "budget_ms": 60000, "seed": 1,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("synthesize: %d %s", resp.StatusCode, body)
		}
	}
	synth()
	first := scrapeMetrics(t, ts.URL)
	synth()
	second := scrapeMetrics(t, ts.URL)

	for _, name := range []string{
		`esd_syntheses_total{outcome="found"}`,
		`esd_search_forks_total{kind="branch"}`,
		`esd_search_forks_total{kind="sched"}`,
		"esd_solver_queries_total",
		"esd_solver_wall_nanoseconds_total",
		"esd_vm_steps_total",
		"esd_interner_terms",
		`esd_dist_lookups_total{metric="steps"}`,
		"esd_synthesis_duration_seconds_count",
		"esd_engine_synthesized_total",
		"esd_engine_compile_cache_hits_total",
		"esd_service_capacity",
		"esd_service_active",
	} {
		if _, ok := second[name]; !ok {
			t.Errorf("missing series %s", name)
		}
	}
	if got := second["esd_service_capacity"]; got != 3 {
		t.Errorf("esd_service_capacity = %v, want 3", got)
	}
	// Counters must be monotonic, and the per-run ones must actually move
	// between the two scrapes. (The registry is process-wide, so absolute
	// values include other tests' runs — only deltas are assertable.)
	for _, name := range []string{
		`esd_syntheses_total{outcome="found"}`,
		"esd_vm_steps_total",
		"esd_solver_queries_total",
		"esd_engine_synthesized_total",
	} {
		if second[name] <= first[name] {
			t.Errorf("%s did not increase across a synthesis: %v -> %v", name, first[name], second[name])
		}
	}
}

// TestServiceTelemetryInResponse: "telemetry": true attaches a flight
// report to the wire result; without it the field is absent.
func TestServiceTelemetryInResponse(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/synthesize", map[string]any{
		"app": "listing1", "budget_ms": 60000, "seed": 1, "telemetry": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		Found     bool `json:"found"`
		Telemetry *struct {
			Schema  string            `json:"schema"`
			Outcome string            `json:"outcome"`
			Forks   map[string]int64  `json:"forks"`
			Trace   []json.RawMessage `json:"trace"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if !res.Found {
		t.Fatalf("not found: %s", body)
	}
	if res.Telemetry == nil {
		t.Fatalf("no telemetry report in response: %s", body)
	}
	if res.Telemetry.Schema != "esd.flight/v1" || res.Telemetry.Outcome != "found" {
		t.Errorf("telemetry header = %q/%q", res.Telemetry.Schema, res.Telemetry.Outcome)
	}
	if len(res.Telemetry.Trace) == 0 || len(res.Telemetry.Forks) == 0 {
		t.Errorf("telemetry report missing trace or forks: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/synthesize", map[string]any{
		"app": "listing1", "budget_ms": 60000, "seed": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), `"telemetry"`) {
		t.Errorf("telemetry report present without the request flag: %s", body)
	}
}

// TestServiceBadRequests covers the error paths.
func TestServiceBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		path string
		body any
		want int
	}{
		{"/synthesize", map[string]any{}, http.StatusBadRequest},                              // no program
		{"/synthesize", map[string]any{"app": "nosuch"}, http.StatusBadRequest},               // unknown app
		{"/synthesize", map[string]any{"program_id": "zz"}, http.StatusBadRequest},            // unknown id
		{"/compile", map[string]any{"source": "int main( {"}, http.StatusUnprocessableEntity}, // syntax error
		{"/batch", map[string]any{"app": "listing1", "reports": []string{}}, http.StatusOK},   // app fallback report
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("POST %s %v: status %d want %d (%s)", c.path, c.body, resp.StatusCode, c.want, body)
		}
	}
	// Per-request budget is capped by MaxBudget (observable as TimedOut
	// well before the requested hour on an unreproducible search).
	capped := newTestServer(t, Config{MaxBudget: 500 * time.Millisecond})
	a := apps.Get("ls3")
	repLs3, err := a.Coredump()
	if err != nil {
		t.Fatal(err)
	}
	repJSON, _ := repLs3.Encode()
	start := time.Now()
	resp, body := postJSON(t, capped.URL+"/synthesize", map[string]any{
		"app": "ls3", "report": json.RawMessage(repJSON), "budget_ms": 3600000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capped synthesize: %d %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("MaxBudget cap not applied: ran %v", elapsed)
	}
}

// TestServiceParallelism drives frontier parallelism over the wire: a
// request reports its worker count, clamped to the server's
// MaxParallelism, and a negative count is rejected.
func TestServiceParallelism(t *testing.T) {
	ts := newTestServer(t, Config{MaxParallelism: 2})

	resp, body := postJSON(t, ts.URL+"/synthesize", map[string]any{
		"app": "listing1", "budget_ms": 60000, "seed": 1, "parallelism": 8,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		Found bool `json:"found"`
		Stats struct {
			Workers int `json:"workers"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if !res.Found {
		t.Fatalf("parallel listing1 not found: %s", body)
	}
	if res.Stats.Workers != 2 {
		t.Errorf("workers = %d, want the MaxParallelism cap 2", res.Stats.Workers)
	}

	resp, body = postJSON(t, ts.URL+"/synthesize", map[string]any{
		"app": "listing1", "parallelism": -1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative parallelism: status %d, want 400: %s", resp.StatusCode, body)
	}
}
