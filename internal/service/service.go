// Package service is the HTTP/JSON front-end of the esd Engine — the
// esdserve deployment artifact. It exposes compile, one-shot synthesis
// (optionally with SSE progress streaming), batch synthesis, and a health
// endpoint that surfaces the engine's shared-cache and interner footprint.
//
// Endpoints:
//
//	POST /compile    {"name": "...", "source": "..."}
//	                 -> {"program_id": "...", "instrs": N}
//	POST /synthesize {"program_id" | "source"+"name" | "app", "report": {...},
//	                  "budget_ms", "seed", "strategy", "preemption_bound",
//	                  "race_detector", "parallelism", "stream"}
//	                 -> result JSON, or an SSE stream of "progress" events
//	                    followed by one "result" event when "stream" is true
//	                    (or the request Accepts text/event-stream)
//	POST /batch      {"program_id" | ..., "reports": [{...}, ...], ...}
//	                 -> {"results": [...]} (streaming is rejected with 400)
//	POST /jobs       same body as /synthesize (minus "stream")
//	                 -> 202 {"id": "...", "state": "queued", ...}
//	GET  /jobs       -> {"jobs": [...]} (oldest first)
//	GET  /jobs/{id}  -> job record (state, counters, result when done)
//	GET  /jobs/{id}/events -> SSE stream of "job" events, one per state
//	                    transition, closing after a terminal one
//	DELETE /jobs/{id} -> cancel (if live) and remove the record
//	GET  /healthz    -> {"status": "ok", "uptime_ms", "capacity", "active",
//	                     "compile_cache_hits",
//	                     "jobs": {"queued": N, "running": N, ...},
//	                     "engine": {...}, "interner": {"terms", "bytes",
//	                     ...}}
//	GET  /metrics    -> Prometheus text exposition: the process-wide
//	                    telemetry registry (search, VM, solver, dist,
//	                    interner, esd_jobs_* series) plus
//	                    esd_engine_*/esd_service_* series rendered from
//	                    this server's engine
//
// Every synthesis but a streaming one runs as a job on the durable job
// subsystem (internal/jobs), whose worker pool runs them: /jobs is the
// asynchronous face (submit, poll, stream, cancel), and /batch and a
// non-streaming /synthesize are thin synchronous wrappers that submit (one
// job per report), wait, and clean up after themselves. A streaming
// /synthesize ("stream": true, or an Accept of text/event-stream) calls
// Engine.Synthesize on its handler goroutine under its admission slot
// instead, so it is never time-sliced, checkpointed or listed under /jobs.
// Jobs are time-sliced — a job still running after the configured slice is
// preempted into a persisted search checkpoint and requeued behind
// waiting work — and, with a file-backed store (Config.JobStore),
// survive process restarts: on startup, queued and checkpointed jobs
// re-enter the run queue and resume from their last checkpoint with
// byte-identical results.
//
// Synthesis and batch requests are admission-controlled by a concurrency
// limit (429 + Retry-After when saturated) and budget-capped per request.
// The interned terms a request builds are reclaimed by the garbage
// collector once nothing references them, so a long-lived server needs no
// reclaim policy of its own.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"esd"
	"esd/internal/apps"
	"esd/internal/expr"
	"esd/internal/jobs"
	"esd/internal/report"
	"esd/internal/telemetry"
)

// Config tunes a Server.
type Config struct {
	// DefaultBudget is applied to requests that do not set budget_ms
	// (default 60s — a service should answer, not sit on the paper's
	// 10-minute debugging budget).
	DefaultBudget time.Duration
	// MaxBudget caps requested budgets (default 10m).
	MaxBudget time.Duration
	// MaxConcurrent bounds simultaneously running syntheses: it is both
	// the admission limit (requests beyond it get 429) and the number of
	// job workers that run job slices (default 4).
	MaxConcurrent int
	// MaxParallelism caps a request's intra-synthesis fan-out: a larger
	// "parallelism" (frontier workers) is clamped to it. Intra-synthesis
	// fan-out multiplies the cores one admission slot consumes, so the
	// server bounds it independently of MaxConcurrent (default 8).
	MaxParallelism int
	// JobStore persists job records; nil means in-memory (jobs are lost
	// on restart). esdserve passes a store opened on its -data-dir so
	// accepted jobs survive crashes and restarts.
	JobStore *jobs.Store
	// JobSlice is the job scheduler's preemption time slice: a job still
	// searching after this long is parked as a search checkpoint and
	// requeued behind waiting work (default 2s; negative disables
	// preemption).
	JobSlice time.Duration
}

// maxBodyBytes caps request bodies: decoding runs before admission
// control, so an unbounded body could drive the server to OOM without
// ever hitting the 429 gate. 16 MiB fits any realistic program+coredumps.
const maxBodyBytes = 16 << 20

// maxBatchReports caps one /batch request's fan-out.
const maxBatchReports = 256

func (c Config) withDefaults() Config {
	if c.DefaultBudget == 0 {
		c.DefaultBudget = 60 * time.Second
	}
	if c.MaxBudget == 0 {
		c.MaxBudget = 10 * time.Minute
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxParallelism == 0 {
		c.MaxParallelism = 8
	}
	if c.JobStore == nil {
		c.JobStore = jobs.NewStore()
	}
	switch {
	case c.JobSlice == 0:
		c.JobSlice = 2 * time.Second
	case c.JobSlice < 0:
		c.JobSlice = 0 // preemption disabled
	}
	return c
}

// maxTrackedJobs bounds the job store: submissions beyond it are refused
// until clients DELETE finished jobs (synchronous /synthesize and /batch
// wrappers clean up after themselves and never accumulate).
const maxTrackedJobs = 1024

// Server is the HTTP front-end over one Engine.
type Server struct {
	eng   *esd.Engine
	cfg   Config
	sem   chan struct{}
	start time.Time
	mux   *http.ServeMux
	jobs  *jobs.Manager
}

// New builds a Server over eng, recovering any persisted jobs from
// cfg.JobStore and starting the job worker pool.
func New(eng *esd.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:   eng,
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		start: time.Now(),
		mux:   http.NewServeMux(),
	}
	mgr, err := jobs.NewManager(jobs.Config{
		Store:   cfg.JobStore,
		Run:     s.runJob,
		Workers: cfg.MaxConcurrent,
		Slice:   cfg.JobSlice,
	})
	if err != nil {
		// Store and runner are always set, so only a failed log write
		// while recovery demotes a running job gets here.
		panic(err)
	}
	s.jobs = mgr
	s.mux.HandleFunc("POST /compile", s.handleCompile)
	s.mux.HandleFunc("POST /synthesize", s.handleSynthesize)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleJobList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close shuts the job scheduler down gracefully: running slices are
// preempted into persisted checkpoints, queued work stays queued, and —
// with a durable store — all of it resumes on the next start.
func (s *Server) Close(ctx context.Context) error { return s.jobs.Close(ctx) }

// --- request/response shapes -------------------------------------------------

type compileRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

type compileResponse struct {
	ProgramID string `json:"program_id"`
	Instrs    int    `json:"instrs"`
}

// synthesizeRequest addresses a program by prior /compile ID, inline
// source, or bundled app name, plus the coredump and search options.
type synthesizeRequest struct {
	ProgramID string `json:"program_id,omitempty"`
	Name      string `json:"name,omitempty"`
	Source    string `json:"source,omitempty"`
	// App selects a bundled evaluated app (program + its coredump):
	// the smoke-test and demo path.
	App string `json:"app,omitempty"`

	// Report is the coredump JSON (optional when App is set).
	Report json.RawMessage `json:"report,omitempty"`

	BudgetMS        int64  `json:"budget_ms,omitempty"`
	Seed            int64  `json:"seed,omitempty"`
	Strategy        string `json:"strategy,omitempty"` // esd | dfs | randpath
	PreemptionBound int    `json:"preemption_bound,omitempty"`
	RaceDetector    bool   `json:"race_detector,omitempty"`
	// Parallelism runs the search frontier-parallel with that many
	// workers, clamped to the server's MaxParallelism; negative values
	// are rejected with 400.
	Parallelism int `json:"parallelism,omitempty"`
	// Telemetry attaches a flight recorder to the synthesis; the result
	// (each result, for /batch) then carries a "telemetry" report.
	Telemetry bool `json:"telemetry,omitempty"`
	// Stream switches the response to SSE progress + final result.
	Stream bool `json:"stream,omitempty"`
}

type batchRequest struct {
	synthesizeRequest
	Reports []json.RawMessage `json:"reports"`
}

type statsJSON struct {
	DurationMS    int64      `json:"duration_ms"`
	Steps         int64      `json:"steps"`
	States        int64      `json:"states"`
	SolverQueries int        `json:"solver_queries"`
	Workers       int        `json:"workers,omitempty"`
	Interner      expr.Stats `json:"interner"`
}

type resultJSON struct {
	Found     bool            `json:"found"`
	TimedOut  bool            `json:"timed_out,omitempty"`
	Cancelled bool            `json:"cancelled,omitempty"`
	Execution json.RawMessage `json:"execution,omitempty"`
	OtherBugs []string        `json:"other_bugs,omitempty"`
	Stats     statsJSON       `json:"stats"`
	// Telemetry is the flight-recorder report (requests with
	// "telemetry": true only).
	Telemetry *esd.FlightReport `json:"telemetry,omitempty"`
	Error     string            `json:"error,omitempty"`
}

type progressJSON struct {
	Phase string `json:"phase"`
	// TSMS is the event's wall-clock timestamp (Unix milliseconds);
	// consumers derive step rates from (ts_ms, steps) deltas.
	TSMS          int64 `json:"ts_ms"`
	ElapsedMS     int64 `json:"elapsed_ms"`
	Steps         int64 `json:"steps"`
	States        int64 `json:"states"`
	Live          int   `json:"live"`
	Depth         int64 `json:"depth"`
	BestDist      int64 `json:"best_dist"`
	SolverQueries int   `json:"solver_queries"`
}

// --- handlers ---------------------------------------------------------------

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req compileRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if req.Source == "" {
		httpError(w, http.StatusBadRequest, "missing source")
		return
	}
	name := req.Name
	if name == "" {
		name = "program.c"
	}
	// The engine's compile memo keeps the program: a later request names
	// it by ID while the memo holds it (an evicted ID needs a re-/compile).
	prog, err := s.eng.Compile(name, req.Source)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "compile: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, compileResponse{ProgramID: prog.ID(), Instrs: prog.NumInstrs()})
}

// resolve locates the program and (for single synthesis) the report.
func (s *Server) resolve(req *synthesizeRequest) (*esd.Program, *esd.BugReport, error) {
	var prog *esd.Program
	var rep *esd.BugReport
	switch {
	case req.App != "":
		a := apps.Get(req.App)
		if a == nil {
			return nil, nil, fmt.Errorf("unknown app %q", req.App)
		}
		// Resolve the app through the engine's Compile memo: repeated
		// {"app": X} requests share one compiled program (and therefore its
		// distance tables, warm solvers and program ID) instead of wrapping
		// a fresh *esd.Program per request, and the sharing is observable
		// as CompileCacheHits in /healthz.
		p, err := s.eng.Compile(a.Name+".c", a.Source)
		if err != nil {
			return nil, nil, err
		}
		r, err := a.Coredump()
		if err != nil {
			return nil, nil, err
		}
		prog, rep = p, &esd.BugReport{R: r}
	case req.ProgramID != "":
		if prog = s.eng.Program(req.ProgramID); prog == nil {
			return nil, nil, fmt.Errorf("unknown program_id %q (compile it first)", req.ProgramID)
		}
	case req.Source != "":
		name := req.Name
		if name == "" {
			name = "program.c"
		}
		p, err := s.eng.Compile(name, req.Source)
		if err != nil {
			return nil, nil, err
		}
		prog = p
	default:
		return nil, nil, fmt.Errorf("missing program: set program_id, source, or app")
	}
	if len(req.Report) > 0 {
		r, err := report.Decode(req.Report)
		if err != nil {
			return nil, nil, err
		}
		rep = &esd.BugReport{R: r}
	}
	return prog, rep, nil
}

// options converts the wire options to engine options, applying the
// server's budget policy.
func (s *Server) options(req *synthesizeRequest) ([]esd.SynthOption, error) {
	budget := s.cfg.DefaultBudget
	if req.BudgetMS > 0 {
		budget = time.Duration(req.BudgetMS) * time.Millisecond
		if budget > s.cfg.MaxBudget {
			budget = s.cfg.MaxBudget
		}
	}
	opts := []esd.SynthOption{esd.WithBudget(budget), esd.WithSeed(req.Seed)}
	switch req.Strategy {
	case "", "esd":
	case "dfs":
		opts = append(opts, esd.WithStrategy(esd.DFS))
	case "randpath":
		opts = append(opts, esd.WithStrategy(esd.RandomPath))
	default:
		return nil, fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	if req.PreemptionBound > 0 {
		opts = append(opts, esd.WithPreemptionBound(req.PreemptionBound))
	}
	if req.RaceDetector {
		opts = append(opts, esd.WithRaceDetection())
	}
	if req.Parallelism < 0 {
		return nil, fmt.Errorf("parallelism must be non-negative")
	}
	if n := min(req.Parallelism, s.cfg.MaxParallelism); n > 1 {
		opts = append(opts, esd.WithParallelism(n))
	}
	if req.Telemetry {
		opts = append(opts, esd.WithTelemetry())
	}
	return opts, nil
}

// --- the job runner ---------------------------------------------------------

// runJob executes one time slice of a job for the jobs.Manager: resolve
// the stored wire request, resume from the job's checkpoint if it has
// one, search until done or preempted, and report the outcome. It runs on
// a manager worker goroutine.
func (s *Server) runJob(ctx context.Context, j *jobs.Job, preempt func() bool) (*jobs.Outcome, error) {
	var req synthesizeRequest
	if err := json.Unmarshal(j.Request, &req); err != nil {
		return nil, fmt.Errorf("decoding job request: %w", err)
	}
	prog, rep, err := s.resolve(&req)
	if err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, errors.New("missing report")
	}
	opts, err := s.options(&req)
	if err != nil {
		return nil, err
	}
	if len(j.Checkpoint) > 0 {
		ck, err := esd.DecodeCheckpoint(j.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("decoding persisted checkpoint: %w", err)
		}
		opts = append(opts, esd.WithResume(ck))
	}
	opts = append(opts, esd.WithPreempt(preempt))

	res, err := s.eng.Synthesize(ctx, prog, rep, opts...)
	if err != nil {
		return nil, err
	}
	out := &jobs.Outcome{
		SolverWallNS:  res.Stats.SolverWallNanos,
		InternerBytes: res.Stats.Interner.Bytes,
	}
	switch {
	case res.Preempted:
		out.Preempted = true
		out.Checkpoint = res.Checkpoint
		out.CheckpointNS = res.CheckpointNanos
	case res.Cancelled && ctx.Err() != nil:
		// The job was withdrawn mid-slice; a Cancelled result produced by
		// the caller's own deadline machinery (ctx still live) is a real
		// outcome and falls through to the result payload below.
		out.Cancelled = true
	default:
		data, err := json.Marshal(toResultJSON(res))
		if err != nil {
			return nil, fmt.Errorf("encoding result: %w", err)
		}
		out.Result = data
	}
	return out, nil
}

// --- the jobs API -----------------------------------------------------------

// jobJSON is the wire shape of a job record. The checkpoint blob itself
// stays server-side (it is an internal serialization, and can be large);
// its size and cost are reported instead.
type jobJSON struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Result is the synthesis result of a done job — the same shape
	// /synthesize answers with.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`

	CreatedUnixMS int64 `json:"created_unix_ms"`
	UpdatedUnixMS int64 `json:"updated_unix_ms"`

	Resumes         int   `json:"resumes,omitempty"`
	Preemptions     int   `json:"preemptions,omitempty"`
	CheckpointBytes int   `json:"checkpoint_bytes,omitempty"`
	CheckpointMS    int64 `json:"checkpoint_ms,omitempty"`
	// PeakInternerBytes and SolverWallMS are the per-job resource record:
	// the largest interner footprint seen at any slice boundary and the
	// cumulative solver wall-clock across all slices.
	PeakInternerBytes int64 `json:"peak_interner_bytes,omitempty"`
	SolverWallMS      int64 `json:"solver_wall_ms,omitempty"`
}

func toJobJSON(j *jobs.Job) jobJSON {
	return jobJSON{
		ID:                j.ID,
		State:             string(j.State),
		Result:            j.Result,
		Error:             j.Error,
		CreatedUnixMS:     j.CreatedUnixMS,
		UpdatedUnixMS:     j.UpdatedUnixMS,
		Resumes:           j.Resumes,
		Preemptions:       j.Preemptions,
		CheckpointBytes:   j.CheckpointBytes,
		CheckpointMS:      j.CheckpointNS / 1e6,
		PeakInternerBytes: j.PeakInternerBytes,
		SolverWallMS:      j.SolverWallNS / 1e6,
	}
}

// submitJob validates a wire request and hands it to the job manager.
// Validation runs up front so a bad request fails at submission with a
// 4xx instead of surfacing later as a failed job.
func (s *Server) submitJob(w http.ResponseWriter, req *synthesizeRequest) (*jobs.Job, bool) {
	_, rep, err := s.resolve(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	if rep == nil {
		httpError(w, http.StatusBadRequest, "missing report")
		return nil, false
	}
	if _, err := s.options(req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	if s.jobs.Len() >= maxTrackedJobs {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests, "job store is full (%d records); DELETE finished jobs", maxTrackedJobs)
		return nil, false
	}
	raw, err := json.Marshal(req)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding request: %v", err)
		return nil, false
	}
	job, err := s.jobs.Submit(raw, false)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return nil, false
	}
	return job, true
}

// runSync runs reqs as synchronous jobs for the handler named op and
// returns their final records in order: it submits them marked Sync, so
// recovery drops them should the process die while the handler waits,
// waits for every one, and deletes them, since nobody else reads their
// results. On a failure it writes the HTTP error and returns nil.
func (s *Server) runSync(w http.ResponseWriter, r *http.Request, op string, reqs []synthesizeRequest) []*jobs.Job {
	ids := make([]string, 0, len(reqs))
	defer func() {
		for _, id := range ids {
			s.jobs.Delete(id)
		}
	}()
	for i := range reqs {
		raw, err := json.Marshal(&reqs[i])
		if err != nil {
			httpError(w, http.StatusInternalServerError, "encoding request: %v", err)
			return nil
		}
		job, err := s.jobs.Submit(raw, true)
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return nil
		}
		ids = append(ids, job.ID)
	}
	finals := make([]*jobs.Job, len(ids))
	for i, id := range ids {
		final, err := s.jobs.Wait(r.Context(), id)
		if err != nil {
			// The client went away (or the server is shutting down): the
			// jobs are withdrawn, as nobody is left to read their results.
			httpError(w, http.StatusInternalServerError, "%s: %v", op, err)
			return nil
		}
		finals[i] = final
	}
	return finals
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req synthesizeRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if req.Stream {
		httpError(w, http.StatusBadRequest, "stream is not supported on /jobs; GET /jobs/{id}/events streams state transitions")
		return
	}
	job, ok := s.submitJob(w, &req)
	if !ok {
		return
	}
	writeJSON(w, http.StatusAccepted, toJobJSON(job))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Jobs []jobJSON `json:"jobs"`
	}{Jobs: []jobJSON{}}
	for _, j := range s.jobs.List() {
		out.Jobs = append(out.Jobs, toJobJSON(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %s", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, toJobJSON(j))
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.jobs.Get(id); !ok {
		httpError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	if err := s.jobs.Delete(id); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "id": id})
}

// handleJobEvents streams the job's state transitions as SSE "job"
// events: the current record first, then one event per transition, the
// stream ending after a terminal state.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	ch, stop, err := s.jobs.Subscribe(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer stop()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		select {
		case j, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(toJobJSON(j))
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: job\ndata: %s\n\n", data)
			fl.Flush()
			if j.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// acquireN admits up to want synthesis slots without blocking, returning
// how many it got (0 → the caller answers 429). Batches charge one slot
// per worker so MaxConcurrent really bounds simultaneously running
// syntheses, not simultaneously running requests.
func (s *Server) acquireN(w http.ResponseWriter, want int) int {
	got := 0
	for got < want {
		select {
		case s.sem <- struct{}{}:
			got++
		default:
			if got == 0 {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, "at capacity (%d concurrent syntheses)", s.cfg.MaxConcurrent)
			}
			return got
		}
	}
	return got
}

func (s *Server) acquire(w http.ResponseWriter) bool { return s.acquireN(w, 1) == 1 }

func (s *Server) releaseN(n int) {
	for i := 0; i < n; i++ {
		<-s.sem
	}
}

func (s *Server) release() { s.releaseN(1) }

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req synthesizeRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	prog, rep, err := s.resolve(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if rep == nil {
		httpError(w, http.StatusBadRequest, "missing report")
		return
	}
	opts, err := s.options(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()

	stream := req.Stream || strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if !stream {
		// The synchronous path is a thin wrapper over the job subsystem
		// (runSync). The request holds its admission slot for the whole
		// wait, so the 429 contract is unchanged; the job itself is
		// time-sliced like any other, so one slow synthesis cannot starve
		// the asynchronous queue.
		finals := s.runSync(w, r, "synthesize", []synthesizeRequest{req})
		if finals == nil {
			return
		}
		switch final := finals[0]; final.State {
		case jobs.StateDone:
			writeJSON(w, http.StatusOK, json.RawMessage(final.Result))
		case jobs.StateFailed:
			httpError(w, http.StatusInternalServerError, "synthesize: %s", final.Error)
		default:
			httpError(w, http.StatusInternalServerError, "synthesize: job %s", final.State)
		}
		return
	}

	// SSE: progress events are emitted synchronously from the synthesis
	// goroutine (this handler's goroutine), so writing from the callback
	// is race-free.
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func(event string, payload any) {
		data, err := json.Marshal(payload)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	opts = append(opts, esd.OnProgress(func(ev esd.ProgressEvent) {
		emit("progress", toProgressJSON(ev))
	}))
	res, err := s.eng.Synthesize(r.Context(), prog, rep, opts...)
	if err != nil {
		emit("result", resultJSON{Error: err.Error()})
		return
	}
	emit("result", toResultJSON(res))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if req.Stream || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		// The embedded synthesizeRequest accepts the field (and /synthesize
		// honors the Accept header), but /batch has no progress stream —
		// silently ignoring either form left clients waiting on events
		// that would never arrive.
		httpError(w, http.StatusBadRequest,
			"stream is not supported on /batch; POST each report to /synthesize with stream=true for progress events")
		return
	}
	if len(req.Reports) > maxBatchReports {
		httpError(w, http.StatusBadRequest, "too many reports (%d > %d)", len(req.Reports), maxBatchReports)
		return
	}
	_, appRep, err := s.resolve(&req.synthesizeRequest)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for i, raw := range req.Reports {
		if _, err := report.Decode(raw); err != nil {
			httpError(w, http.StatusBadRequest, "report %d: %v", i, err)
			return
		}
	}
	if len(req.Reports) == 0 && appRep == nil {
		httpError(w, http.StatusBadRequest, "missing reports")
		return
	}
	if _, err := s.options(&req.synthesizeRequest); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// One job per report. The batch is a thin wrapper over the job
	// subsystem: the handler's admission slots bound how much of the
	// service this request may claim (429 contract unchanged), while the
	// job workers do the actual syntheses, time-sliced against everything
	// else in the queue.
	jobReqs := make([]synthesizeRequest, 0, len(req.Reports))
	if len(req.Reports) > 0 {
		for _, raw := range req.Reports {
			jr := req.synthesizeRequest
			jr.Report = raw
			jobReqs = append(jobReqs, jr)
		}
	} else {
		// App-derived single report: the per-job request re-resolves it.
		jobReqs = append(jobReqs, req.synthesizeRequest)
	}
	want := len(jobReqs)
	if want > s.cfg.MaxConcurrent {
		want = s.cfg.MaxConcurrent
	}
	workers := s.acquireN(w, want)
	if workers == 0 {
		return
	}
	defer s.releaseN(workers)

	finals := s.runSync(w, r, "batch", jobReqs)
	if finals == nil {
		return
	}
	out := struct {
		Results []resultJSON `json:"results"`
	}{Results: make([]resultJSON, 0, len(finals))}
	for _, final := range finals {
		var res resultJSON
		switch final.State {
		case jobs.StateDone:
			if err := json.Unmarshal(final.Result, &res); err != nil {
				res = resultJSON{Error: fmt.Sprintf("decoding job result: %v", err)}
			}
		case jobs.StateFailed:
			res = resultJSON{Error: final.Error}
		default:
			res = resultJSON{Cancelled: true, Error: fmt.Sprintf("job %s", final.State)}
		}
		out.Results = append(out.Results, res)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// One Stats() snapshot serves both the nested engine block and the
	// promoted top-level fields, so the two can never disagree.
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":             "ok",
		"uptime_ms":          time.Since(s.start).Milliseconds(),
		"capacity":           s.cfg.MaxConcurrent,
		"active":             len(s.sem),
		"compile_cache_hits": st.CompileCacheHits,
		"engine":             st,
		"interner":           expr.InternerStats(),
		"jobs":               s.jobs.Depths(),
	})
}

// handleMetrics renders the Prometheus text exposition: the process-wide
// telemetry registry first, then engine/service series derived from one
// EngineStats snapshot. Engine series are written here rather than
// registered globally because the registry is process-wide and
// panics on duplicate names — a process may hold many engines (tests do),
// but a server exposes exactly one.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w)

	st := s.eng.Stats()
	series := []struct {
		name, typ, help string
		value           int64
	}{
		{"esd_engine_active", "gauge", "Syntheses currently running on this server's engine.", st.Active},
		{"esd_engine_synthesized_total", "counter", "Completed synthesis calls.", st.Synthesized},
		{"esd_engine_found_total", "counter", "Syntheses that reproduced their bug.", st.Found},
		{"esd_engine_programs_compiled_total", "counter", "Compile calls that built a new program.", st.ProgramsCompiled},
		{"esd_engine_compile_cache_hits_total", "counter", "Compile calls served from the source-keyed memo.", st.CompileCacheHits},
		{"esd_engine_programs_cached", "gauge", "Programs currently held by the compile memo.", int64(st.ProgramsCached)},
		{"esd_service_capacity", "gauge", "Admission-control concurrency limit.", int64(s.cfg.MaxConcurrent)},
		{"esd_service_active", "gauge", "Synthesis slots currently held by requests.", int64(len(s.sem))},
	}
	for _, m := range series {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, m.typ, m.name, m.value)
	}

	// Job-store depth by state. Rendered here (not registered globally) for
	// the same reason as the engine series: the registry is process-wide,
	// but each server has its own job manager.
	depths := s.jobs.Depths()
	fmt.Fprintf(w, "# HELP esd_jobs_state Jobs currently in each lifecycle state.\n# TYPE esd_jobs_state gauge\n")
	for _, st := range jobs.States {
		fmt.Fprintf(w, "esd_jobs_state{state=%q} %d\n", st, depths[st])
	}
}

// --- helpers ----------------------------------------------------------------

func toResultJSON(res *esd.Result) resultJSON {
	if res == nil {
		return resultJSON{Error: "no result"}
	}
	out := resultJSON{
		Found:     res.Found,
		TimedOut:  res.TimedOut,
		Cancelled: res.Cancelled,
		OtherBugs: res.OtherBugs,
		Stats: statsJSON{
			DurationMS:    res.Stats.Duration.Milliseconds(),
			Steps:         res.Stats.Steps,
			States:        res.Stats.States,
			SolverQueries: res.Stats.SolverQueries,
			Workers:       res.Stats.Workers,
			Interner:      res.Stats.Interner,
		},
	}
	out.Telemetry = res.Report()
	if res.Execution != nil {
		if data, err := res.Execution.JSON(); err == nil {
			out.Execution = data
		}
	}
	return out
}

func toProgressJSON(ev esd.ProgressEvent) progressJSON {
	return progressJSON{
		Phase:         ev.Phase.String(),
		TSMS:          ev.Time.UnixMilli(),
		ElapsedMS:     ev.Elapsed.Milliseconds(),
		Steps:         ev.Steps,
		States:        ev.States,
		Live:          ev.Live,
		Depth:         ev.Depth,
		BestDist:      ev.BestDist,
		SolverQueries: ev.SolverQueries,
	}
}

// decodeBody parses a size-capped JSON request body, answering 413 for
// oversized payloads (so clients can tell "shrink and retry" apart from
// "malformed") and 400 for everything else. A non-nil return means the
// response has been written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return nil
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
		return err
	}
	httpError(w, http.StatusBadRequest, "bad request: %v", err)
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
