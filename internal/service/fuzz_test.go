package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"esd"
	"esd/internal/apps"
)

// fuzzPaths are the handlers that decode a request body.
var fuzzPaths = []string{"/compile", "/synthesize", "/batch"}

// FuzzHandlers posts arbitrary bodies to the handlers that decode them.
// Each handler decodes its request and runs its syntheses itself, so the
// fuzzer reaches the engine through no job runner: the body goes straight
// through Server.ServeHTTP into a ResponseRecorder, and a panic in a
// handler fails the target instead of being recovered by net/http. A
// panic in a synthesis, which Server.synthesize turns into an error
// result, fails it too: the target's synth records it, with its stack,
// before passing it on. No body may panic a handler or the engine, and
// every response must be an SSE stream of JSON events or a valid JSON
// body. Both budgets are 1 ms, so a body that starts a synthesis ends it
// at once. The bodies the other service tests post seed the corpus.
func FuzzHandlers(f *testing.F) {
	eng := esd.New()
	srv := New(eng, Config{DefaultBudget: time.Millisecond, MaxBudget: time.Millisecond})
	f.Cleanup(func() { srv.Close(context.Background()) })
	var panicked atomic.Pointer[string]
	synth := srv.synth
	srv.synth = func(ctx context.Context, prog *esd.Program, rep *esd.BugReport, opts ...esd.SynthOption) (*esd.Result, error) {
		defer func() {
			if p := recover(); p != nil {
				msg := fmt.Sprintf("%v\n%s", p, debug.Stack())
				panicked.CompareAndSwap(nil, &msg)
				panic(p)
			}
		}()
		return synth(ctx, prog, rep, opts...)
	}

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
		if msg := panicked.Swap(nil); msg != nil {
			t.Fatalf("POST %s panicked a synthesis: %s", p, *msg)
		}
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
