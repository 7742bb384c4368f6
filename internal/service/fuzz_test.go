package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"esd"
	"esd/internal/apps"
)

// fuzzPaths are the handlers that decode a request body.
var fuzzPaths = []string{"/compile", "/synthesize", "/batch"}

// FuzzHandlers posts arbitrary bodies to the handlers that decode them.
// Request decoding runs in the handler, outside the job runner's panic
// shield, so the body goes straight through Server.ServeHTTP into a
// ResponseRecorder: a panic fails the target instead of being recovered
// by net/http. No body may panic a handler, and every response must be
// an SSE stream of JSON events or a valid JSON body. Both budgets are
// 1 ms, so a body that starts a synthesis ends it at once. The bodies
// the other service tests post seed the corpus.
func FuzzHandlers(f *testing.F) {
	eng := esd.New()
	srv := New(eng, Config{DefaultBudget: time.Millisecond, MaxBudget: time.Millisecond})
	f.Cleanup(func() { srv.Close(context.Background()) })

	listing1 := apps.Get("listing1")
	prog, err := eng.Compile("listing1.c", listing1.Source)
	if err != nil {
		f.Fatal(err)
	}
	rep, err := listing1.Coredump()
	if err != nil {
		f.Fatal(err)
	}
	repJSON, err := rep.Encode()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		path int
		body map[string]any
	}{
		{0, map[string]any{"name": "listing1.c", "source": listing1.Source}},
		{0, map[string]any{"source": "int main( {"}},
		{1, map[string]any{"app": "listing1", "budget_ms": 60000, "seed": 1}},
		{1, map[string]any{"program_id": prog.ID(), "report": json.RawMessage(repJSON), "budget_ms": 60000}},
		{1, map[string]any{"app": "listing1", "budget_ms": 60000, "stream": true}},
		{1, map[string]any{"app": "listing1", "budget_ms": 60000, "seed": 1, "telemetry": true}},
		{1, map[string]any{"app": "listing1", "budget_ms": 60000, "seed": 1, "parallelism": 8}},
		{1, map[string]any{"app": "listing1", "parallelism": -1}},
		{1, map[string]any{"app": "ls3", "report": json.RawMessage(repJSON), "budget_ms": 3600000}},
		{1, map[string]any{}},
		{1, map[string]any{"app": "nosuch"}},
		{1, map[string]any{"program_id": "zz"}},
		{2, map[string]any{"app": "listing1", "reports": []json.RawMessage{repJSON, repJSON}, "budget_ms": 60000}},
		{2, map[string]any{"app": "listing1", "reports": []json.RawMessage{repJSON}, "stream": true, "budget_ms": 1000}},
		{2, map[string]any{"app": "listing1", "reports": []string{}}},
	} {
		body, err := json.Marshal(seed.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(seed.path), body)
	}

	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		p := fuzzPaths[int(path)%len(fuzzPaths)]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", p, bytes.NewReader(body)))
		out := rec.Body.Bytes()
		if rec.Header().Get("Content-Type") != "text/event-stream" {
			if !json.Valid(out) {
				t.Fatalf("POST %s answered %d with a body that is not JSON: %q", p, rec.Code, out)
			}
			return
		}
		for _, ev := range bytes.Split(bytes.TrimSuffix(out, []byte("\n\n")), []byte("\n\n")) {
			_, data, ok := bytes.Cut(ev, []byte("\ndata: "))
			if !ok || !bytes.HasPrefix(ev, []byte("event: ")) || !json.Valid(data) {
				t.Fatalf("POST %s streamed a malformed event %q", p, ev)
			}
		}
	})
}
