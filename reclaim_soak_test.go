package esd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"esd"
	"esd/internal/expr"
	"esd/internal/service"
)

// soakVariant builds the i-th distinct-source soak program: a small
// input-dependent null-dereference crash whose constants (and therefore
// whose interned symbolic terms) differ per variant, modeling a service
// whose tenants upload ever-new programs. Each variant reads its own
// input name, so its variable names are fresh too. The mixer is
// deliberately non-linear (xor/mul chains do not constant-fold), so
// symbolically executing each variant interns a fresh batch of distinct
// terms. trigger is the input value that reproduces the crash.
func soakVariant(i int) (name, src, input string, trigger int64) {
	input = fmt.Sprintf("k%d", i)
	trigger = int64(40000 + 17*i)
	var b strings.Builder
	fmt.Fprintf(&b, "// soak variant %d - input-dependent NULL dereference.\nint out;\nint table[8];\n\nint mix(int v) {\n\tint acc = v;\n", i)
	for r := 0; r < 16; r++ {
		mul := int64(100003+26*i+14*r) | 1 // odd multiplier, variant- and round-distinct
		x1 := int64(777001 + 97*i + 31*r)
		x2 := int64(555001 + 89*i + 29*r)
		fmt.Fprintf(&b, "\tacc = (acc ^ %d) * %d;\n\tacc = acc + (v ^ %d);\n", x1, mul, x2)
	}
	fmt.Fprintf(&b, `	return acc;
}

int main() {
	int k = input(%q);
	out = mix(k);
	int *p = table;
	if (k == %d) {
		p = 0;
	}
	if (out != %d) {
		return p[0];
	}
	return 0;
}`, input, trigger, int64(600000+3*i))
	return fmt.Sprintf("soak%d.c", i), b.String(), input, trigger
}

// soakOutcome is what a served run must share with a run on a fresh
// engine: whether the bug was reproduced and the search effort.
type soakOutcome struct {
	Found bool `json:"found"`
	Stats struct {
		Steps int64 `json:"steps"`
	} `json:"stats"`
}

// soakRequest is one variant's /synthesize body and its reference
// outcome from a fresh engine.
type soakRequest struct {
	body map[string]any
	want soakOutcome
}

// soakRequests builds 24 variants, starting at variant first, and runs
// each once on its own fresh engine for the reference outcome.
func soakRequests(t *testing.T, first int) []soakRequest {
	t.Helper()
	reqs := make([]soakRequest, 24)
	for i := range reqs {
		name, src, input, trigger := soakVariant(first + i)
		prog, err := esd.CompileMiniC(name, src)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		rep, err := esd.SimulateUserSite(prog, &esd.UserInputs{Named: map[string]int64{input: trigger}})
		if err != nil {
			t.Fatalf("variant %d user site: %v", i, err)
		}
		repJSON, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		res, err := esd.New().Synthesize(context.Background(), prog, rep, esd.WithBudget(time.Minute), esd.WithSeed(1))
		if err != nil {
			t.Fatalf("variant %d on a fresh engine: %v", i, err)
		}
		if !res.Found {
			t.Fatalf("variant %d not reproduced on a fresh engine", i)
		}
		reqs[i].body = map[string]any{
			"name": name, "source": src, "report": json.RawMessage(repJSON),
			"seed": 1, "budget_ms": 60000,
		}
		reqs[i].want.Found = res.Found
		reqs[i].want.Stats.Steps = res.Stats.Steps
	}
	return reqs
}

// postSynthesize drives one /synthesize request and returns the outcome.
// It reports failures with t.Error, so it is safe off the test goroutine.
func postSynthesize(t *testing.T, url string, body map[string]any) (soakOutcome, bool) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return soakOutcome{}, false
	}
	resp, err := http.Post(url+"/synthesize", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Error(err)
		return soakOutcome{}, false
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("synthesize status %d: %s", resp.StatusCode, buf.String())
		return soakOutcome{}, false
	}
	var out soakOutcome
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Errorf("bad response %s: %v", buf.String(), err)
		return soakOutcome{}, false
	}
	return out, true
}

// internerFloor forces collections until the interner footprint holds
// still over three polls, and returns it.
func internerFloor(t *testing.T) expr.Stats {
	t.Helper()
	prev := expr.InternerStats()
	deadline := time.Now().Add(10 * time.Second)
	for still := 0; still < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("the interner footprint never settled (last %+v)", prev)
		}
		expr.TryReclaim()
		time.Sleep(5 * time.Millisecond)
		cur := expr.InternerStats()
		if cur.Terms == prev.Terms && cur.Bytes == prev.Bytes {
			still++
		} else {
			still = 0
		}
		prev = cur
	}
	return prev
}

// backToFloor forces collections until the footprint is no larger than
// floor, failing the test if that takes over ten seconds.
func backToFloor(t *testing.T, floor expr.Stats, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		expr.TryReclaim()
		st := expr.InternerStats()
		if st.Terms <= floor.Terms && st.Bytes <= floor.Bytes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: interner holds %d terms / %d B, above the pre-soak floor of %d / %d",
				when, st.Terms, st.Bytes, floor.Terms, floor.Bytes)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInternerReclaimSoak is the memory bound of a long-lived server with
// no configuration: 24 distinct-source /synthesize requests through an
// esdserve on a default engine must each leave the interner, once
// collected, at its pre-soak floor — terms and variable names alike —
// while every result (found flag and step count, at a fixed seed)
// matches a run on a fresh engine.
func TestInternerReclaimSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("drives dozens of syntheses; skipped with -short")
	}
	floor := internerFloor(t)
	reqs := soakRequests(t, 0)
	backToFloor(t, floor, "after the fresh-engine runs")
	ts := httptest.NewServer(service.New(esd.New(), service.Config{}))
	defer ts.Close()
	for i, r := range reqs {
		misses := expr.InternerStats().InternMisses
		got, ok := postSynthesize(t, ts.URL, r.body)
		if !ok {
			t.FailNow()
		}
		if got != r.want {
			t.Errorf("variant %d served found=%v steps=%d, fresh engine found=%v steps=%d",
				i, got.Found, got.Stats.Steps, r.want.Found, r.want.Stats.Steps)
		}
		if expr.InternerStats().InternMisses == misses {
			t.Fatalf("variant %d interned no new terms; the soak churns nothing", i)
		}
		backToFloor(t, floor, fmt.Sprintf("after variant %d", i))
	}
}

// TestReclaimUnderSaturation is the soak on a server that is never idle:
// 4 concurrent clients post 24 further variants while a goroutine forces
// collections, so terms are collected under live syntheses. Every result
// must still match a fresh engine's, and once the load stops the
// interner must be back at its floor. CI runs it under -race.
func TestReclaimUnderSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("drives dozens of syntheses; skipped with -short")
	}
	const clients = 4
	floor := internerFloor(t)
	reqs := soakRequests(t, 24)
	backToFloor(t, floor, "after the fresh-engine runs")
	ts := httptest.NewServer(service.New(esd.New(), service.Config{MaxConcurrent: clients}))
	defer ts.Close()

	stop := make(chan struct{})
	collected := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				collected <- n
				return
			default:
			}
			expr.TryReclaim()
			n++
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += clients {
				got, ok := postSynthesize(t, ts.URL, reqs[i].body)
				if ok && got != reqs[i].want {
					t.Errorf("variant %d served found=%v steps=%d under load, fresh engine found=%v steps=%d",
						i, got.Found, got.Stats.Steps, reqs[i].want.Found, reqs[i].want.Stats.Steps)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-collected; n == 0 {
		t.Fatal("no collection ran under the load")
	}
	backToFloor(t, floor, "after the load")
}

// TestReclaimQuiescenceUnderLoad checks that collections need no
// quiescence: while 3 goroutines run listing1 three times each on one
// engine, the test goroutine forces collections back to back. Every run
// must reproduce the bug with the step count of an unloaded run at the
// same seed, and once the runs finish the interner must be back at its
// floor. CI runs it under -race.
func TestReclaimQuiescenceUnderLoad(t *testing.T) {
	prog, rep := appProgReport(t, "listing1")
	eng := esd.New()
	ref, err := eng.Synthesize(context.Background(), prog, rep, esd.WithBudget(time.Minute), esd.WithSeed(1))
	if err != nil || !ref.Found {
		t.Fatalf("listing1 unloaded: found=%v err=%v", ref != nil && ref.Found, err)
	}
	wantSteps := ref.Stats.Steps
	ref = nil
	floor := internerFloor(t)

	const workers = 3
	const runsPerWorker = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runsPerWorker; i++ {
				res, err := eng.Synthesize(context.Background(), prog, rep,
					esd.WithBudget(time.Minute), esd.WithSeed(1))
				if err != nil {
					t.Errorf("synthesize under forced collections: %v", err)
					return
				}
				if !res.Found {
					t.Error("listing1 not reproduced under forced collections")
					return
				}
				if res.Stats.Steps != wantSteps {
					t.Errorf("listing1 took %d steps under forced collections, %d unloaded", res.Stats.Steps, wantSteps)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	forced := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			expr.TryReclaim()
			forced++
			time.Sleep(200 * time.Microsecond)
		}
	}
	t.Logf("%d forced collections interleaved with %d syntheses", forced, workers*runsPerWorker)
	backToFloor(t, floor, "after the syntheses")
}
