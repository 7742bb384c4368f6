package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"esd"
	"esd/internal/apps"
	"esd/internal/service"
)

const (
	// triageClients is the closed loop's client count (= nproc on the
	// 2-core machines the benchmark targets) and the server's admission
	// limit, so no request is refused.
	triageClients = 2
	// triageSeedsPerApp is how many synthesis seeds each app is requested
	// with in one pass.
	triageSeedsPerApp = 30
)

// triageApps are the bundled apps the triage pass requests: all but ls3
// and ls4, whose single syntheses take seconds and have their own
// workloads.
func triageApps() []string {
	var out []string
	for _, a := range apps.All() {
		if a.Name != "ls3" && a.Name != "ls4" {
			out = append(out, a.Name)
		}
	}
	return out
}

// triageRequest is one POST /synthesize of a pass.
type triageRequest struct {
	app  string
	seed int64
}

// synthesizeBody is the /synthesize wire request the clients send.
type synthesizeBody struct {
	Name      string          `json:"name"`
	Source    string          `json:"source"`
	Report    json.RawMessage `json:"report"`
	Seed      int64           `json:"seed"`
	Telemetry bool            `json:"telemetry,omitempty"`
}

// synthesizeReply is the part of the /synthesize reply the clients read.
type synthesizeReply struct {
	Found     bool            `json:"found"`
	Execution json.RawMessage `json:"execution"`
	Error     string          `json:"error"`
	Stats     struct {
		Steps         int64 `json:"steps"`
		States        int64 `json:"states"`
		SolverQueries int   `json:"solver_queries"`
	} `json:"stats"`
	Telemetry *esd.FlightReport `json:"telemetry"`
}

// triageRunner serves a shuffled pass of /synthesize requests to
// triageClients closed-loop clients over loopback HTTP, from an
// in-process service.New server with the in-memory job store.
type triageRunner struct {
	jobs  map[string]job
	order []triageRequest

	srv    *triageServer
	client *http.Client
}

func setupTriage(seed int64) (runner, error) {
	r := &triageRunner{jobs: map[string]job{}}
	for _, name := range triageApps() {
		j, err := appJob(name)
		if err != nil {
			return nil, err
		}
		r.jobs[name] = j
		for k := int64(0); k < triageSeedsPerApp; k++ {
			r.order = append(r.order, triageRequest{app: name, seed: seed*triageSeedsPerApp + k})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(r.order), func(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] })
	return r, r.start(false)
}

func (r *triageRunner) start(traced bool) error {
	srv, err := startTriageServer(traced)
	if err != nil {
		return err
	}
	r.srv = srv
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: triageClients}}
	return nil
}

func (r *triageRunner) stop() {
	r.client.CloseIdleConnections()
	r.srv.close()
}

func (r *triageRunner) unit(ctx context.Context, u *unitCtx) error {
	hitsBefore := r.srv.eng.Stats().CompileCacheHits
	preemptBefore, err := r.srv.preemptions()
	if err != nil {
		return err
	}
	// Client-side compiles for replay, one per program per pass.
	progs := map[string]*esd.Program{}
	var progMu sync.Mutex
	program := func(j job) (*esd.Program, error) {
		progMu.Lock()
		defer progMu.Unlock()
		if p, ok := progs[j.name]; ok {
			return p, nil
		}
		p, err := esd.CompileMiniC(j.name, j.source)
		if err == nil {
			progs[j.name] = p
			u.addInstrs(p.NumInstrs())
		}
		return p, err
	}

	next := make(chan triageRequest)
	var wg sync.WaitGroup
	for c := 0; c < triageClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tr := range next {
				if err := r.request(ctx, u, tr, program); err != nil {
					u.fail(fmt.Errorf("%s seed %d: %w", tr.app, tr.seed, err))
				}
			}
		}()
	}
	for _, tr := range r.order {
		next <- tr
	}
	close(next)
	wg.Wait()
	r.srv.handler.wait()
	u.joinHandlerSpans(r.srv.handler)

	u.addWorkKey("lang.compile_hits", r.srv.eng.Stats().CompileCacheHits-hitsBefore)
	preemptAfter, err := r.srv.preemptions()
	if err != nil {
		return err
	}
	u.addWorkKey("jobs.preemptions", preemptAfter-preemptBefore)
	return nil
}

// request posts one synthesis and verifies the execution it returns.
func (r *triageRunner) request(ctx context.Context, u *unitCtx, tr triageRequest, program func(job) (*esd.Program, error)) error {
	j := r.jobs[tr.app]
	req, rootID := u.begin()
	reqStart := time.Now()
	defer func() { u.tr.record(rootID, 0, req, "request", reqStart, time.Now()) }()

	body, err := json.Marshal(synthesizeBody{Name: j.name, Source: j.source, Report: j.core, Seed: tr.seed, Telemetry: u.tr != nil})
	if err != nil {
		return err
	}
	postID := u.tr.newID()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.srv.url+"/synthesize", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(reqHeader, strconv.Itoa(req)+","+strconv.Itoa(postID))
	t := time.Now()
	resp, err := r.client.Do(hreq)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	postEnd := time.Now()
	u.tr.record(postID, rootID, req, "client.post", t, postEnd)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		u.addLayer("service.rejected", 1)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var reply synthesizeReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return err
	}
	u.latency(postEnd.Sub(reqStart))
	u.addWork(reply.Stats.Steps, reply.Stats.States, 0, int64(reply.Stats.SolverQueries))
	if fr := reply.Telemetry; fr != nil {
		u.addFlight(fr, false)
		if fr.Wall != nil {
			u.clientCall(req, postEnd.Sub(t), time.Duration(fr.Wall.TotalNS))
		}
	}
	if reply.Error != "" {
		return errors.New(reply.Error)
	}
	if !reply.Found || len(reply.Execution) == 0 {
		return errors.New("no execution")
	}
	prog, err := program(j)
	if err != nil {
		return err
	}
	rep, err := esd.ReportFromJSON(j.core)
	if err != nil {
		return err
	}
	ex, err := esd.ExecutionFromJSON(reply.Execution)
	if err != nil {
		return err
	}
	return u.verify(rootID, req, prog, rep, ex)
}

// reqHeader carries "<request id>,<client span id>" to the server-side
// timing wrapper, so its span joins the client's request.
const reqHeader = "X-Perfbench-Request"

// triageServer is one in-process esdserve: engine, service, and an HTTP
// server on a loopback port.
type triageServer struct {
	eng     *esd.Engine
	svc     *service.Server
	handler *timedHandler
	hs      *http.Server
	done    chan struct{}
	url     string
}

func startTriageServer(traced bool) (*triageServer, error) {
	eng := esd.New()
	svc := service.New(eng, service.Config{MaxConcurrent: triageClients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close(context.Background())
		return nil, err
	}
	s := &triageServer{
		eng: eng, svc: svc,
		handler: &timedHandler{next: svc, on: traced, spans: map[int]handlerSpan{}},
		done:    make(chan struct{}),
		url:     "http://" + ln.Addr().String(),
	}
	s.hs = &http.Server{Handler: s.handler}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

func (s *triageServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
	}
	<-s.done
	if err := s.svc.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: service close: %v\n", err)
	}
}

// preemptions reads esd_jobs_preemptions_total from the server's
// /metrics (process-wide, so callers take deltas).
func (s *triageServer) preemptions() (int64, error) {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "esd_jobs_preemptions_total "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("/metrics: no esd_jobs_preemptions_total")
}

// timedHandler is the benchmark's timing wrapper around the service's
// http.Handler: in traced units it times every /synthesize request.
type timedHandler struct {
	next http.Handler
	on   bool

	wg    sync.WaitGroup
	mu    sync.Mutex
	spans map[int]handlerSpan // by request id
}

type handlerSpan struct {
	parent     int
	start, end time.Time
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on || r.Header.Get(reqHeader) == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	h.wg.Add(1)
	defer h.wg.Done()
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	var req, parent int
	fmt.Sscanf(r.Header.Get(reqHeader), "%d,%d", &req, &parent)
	h.mu.Lock()
	h.spans[req] = handlerSpan{parent: parent, start: start, end: end}
	h.mu.Unlock()
}

// wait returns once every handler call has recorded its span.
func (h *timedHandler) wait() { h.wg.Wait() }

// take removes and returns the handler span of request req.
func (h *timedHandler) take(req int) (handlerSpan, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.spans[req]
	delete(h.spans, req)
	return s, ok
}
