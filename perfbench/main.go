// Command perfbench is the repository's end-to-end benchmark: how long ESD
// takes to turn a coredump into an execution that strict replay proves
// reproduces the bug, on four workloads, with a traced mode that splits
// the time by module. See README.md for the workloads and metrics.
//
//	python3 perfbench/run.py --workload crash-ls4 --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: with --trace 0 it
// carries the end-to-end metrics, with --trace 1 the per-layer metrics.
// Any request that fails (an error, no execution, or an execution whose
// strict replay does not match the report) makes the run exit 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"esd"
	"esd/internal/dist"
	"esd/internal/expr"
)

// exactWork are the work counts every unit of a run must repeat: the
// search's own counters, deterministic for a fixed input and synthesis
// seed. Cache hits depend on GC and thread timing, and a checkpoint's size
// on the wall time it records, so they are printed but not compared.
var exactWork = []string{
	"search.steps", "search.states", "search.forks.branch", "search.forks.sched",
	"search.pruned", "search.sheds", "search.segments", "solver.queries",
}

// A run builds its set-up at least setupMinReps times and until
// setupMinTime has passed (at most setupMaxReps times); setup_s is the
// median, so millisecond set-ups are timed over many repetitions.
const (
	setupMinReps = 5
	setupMaxReps = 200
	setupMinTime = time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: crash-ls4, bpf-sweep, triage-serve, resume-ls3")
		seed    = flag.Int64("seed", 1, "workload seed (same seed, same inputs)")
		seconds = flag.Int("seconds", 15, "how long the timed phase runs; whole units only, at least one")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
		outDir  = flag.String("out", ".bench_out", "directory for the traced run's spans and CPU profiles")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d, nproc %d, GOMAXPROCS %d\n",
		w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	out, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "perfbench: request failed: %s\n", e)
	}
	work, err := json.Marshal(out.work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("work per unit (seed %d, %d units, %d requests): %s\n", *seed, out.units, out.attempted, work)
	line, err := json.Marshal(out.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		os.Exit(1)
	}
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result.
type outcome struct {
	attempted, failed, units int
	errs                     []string
	// work holds the first untraced unit's exact work counts (the traced
	// unit's, in a traced run) — what a later change must reproduce to
	// claim it ran the same search.
	work    map[string]int64
	metrics map[string]metric
}

func (o *outcome) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, o.metrics}
}

// unitResult is what one timed unit measured.
type unitResult struct {
	traced  bool
	use     usage
	profile []byte // gzipped CPU profile (traced units)
	*unitCtx
}

// run sets the workload up repeatedly, then runs whole units until
// d has passed (at least one; a traced run alternates untraced and traced
// units and runs at least one of each), and computes the metrics.
func run(w *workload, seed int64, d time.Duration, traced bool, outDir string) (*outcome, error) {
	t0 := time.Now()
	var setups []float64
	var r runner
	for i := 0; i < setupMinReps || (i < setupMaxReps && time.Since(t0) < setupMinTime); i++ {
		freshProcessState()
		t := time.Now()
		rr, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		rr.stop()
		r = rr
	}

	var tr *tracer
	if traced {
		tr = newTracer(t0)
	}
	ctx := context.Background()
	var units []unitResult
	reqs := 0
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		tracedUnit := traced && i%2 == 1
		freshProcessState()
		if err := r.start(tracedUnit); err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
		u := newUnitCtx(reqs)
		var prof bytes.Buffer
		if tracedUnit {
			u.tr = tr
			tr.setUnit(i)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		distHits, distMisses := dist.SharedCacheStats()
		rss := sampleRSS()
		before := readCounters()
		err := r.unit(ctx, u)
		use := readCounters().since(before)
		use.peakRSS = rss.peak()
		if tracedUnit {
			pprof.StopCPUProfile()
		}
		h, m := dist.SharedCacheStats()
		u.addWorkKey("dist.cache_hits", h-distHits)
		u.addWorkKey("dist.cache_misses", m-distMisses)
		in := expr.InternerStats()
		u.addWorkKey("expr.terms", int64(in.Terms))
		u.addWorkKey("expr.bytes", in.Bytes)
		r.stop()
		if err != nil {
			return nil, err
		}
		reqs = u.nextReq
		fmt.Fprintf(os.Stderr, "perfbench: unit %d%s: wall %.3fs cpu %.3fs alloc %.1fMB rss %.1fMB gc %d\n", i,
			map[bool]string{true: " (traced)"}[tracedUnit], use.wall.Seconds(), use.cpu.Seconds(),
			float64(use.allocBytes)/1e6, float64(use.peakRSS)/1e6, use.gcCycles)
		units = append(units, unitResult{traced: tracedUnit, use: use, profile: prof.Bytes(), unitCtx: u})
		if time.Now().After(deadline) && (!traced || i >= 1) {
			break
		}
	}

	out := &outcome{units: len(units), metrics: map[string]metric{}}
	for i, u := range units {
		out.attempted += u.attempted
		out.failed += len(u.errs)
		out.errs = append(out.errs, u.errs...)
		if u.traced != traced {
			continue
		}
		if out.work == nil {
			out.work = u.work
			continue
		}
		for _, k := range exactWork {
			if v := u.work[k]; v != out.work[k] {
				fmt.Fprintf(os.Stderr, "perfbench: unit %d: %s = %d, first unit %d\n", i, k, v, out.work[k])
			}
		}
	}
	if out.attempted == 0 {
		return nil, errors.New("no request attempted")
	}
	if traced {
		if err := layerMetrics(out, units, tr, filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))); err != nil {
			return nil, err
		}
		return out, nil
	}
	endToEnd(out, units, setups)
	return out, nil
}

// endToEnd fills the untraced run's metrics: the median over units of
// each unit's wall, CPU, allocation, peak RSS and request-latency
// quantiles, and the median set-up time.
func endToEnd(out *outcome, units []unitResult, setups []float64) {
	var wall, cpu, alloc, rss, p50, p95 []float64
	samples := 0
	for _, u := range units {
		wall = append(wall, u.use.wall.Seconds())
		rss = append(rss, float64(u.use.peakRSS)/1e6)
		cpu = append(cpu, u.use.cpu.Seconds())
		alloc = append(alloc, float64(u.use.allocBytes)/1e6)
		p50 = append(p50, quantile(u.lat, 0.5))
		p95 = append(p95, quantile(u.lat, 0.95))
		samples += len(u.lat)
	}
	put := func(name string, v float64, unit string) { out.metrics[name] = metric{v, unit} }
	put("setup_s", median(setups), "s")
	put("wall_s", median(wall), "s")
	put("cpu_s", median(cpu), "s")
	put("alloc_mb", median(alloc), "MB")
	put("peak_rss_mb", median(rss), "MB")
	put("latency_p50_ms", median(p50)*1e3, "ms")
	put("latency_p95_ms", median(p95)*1e3, "ms")
	fmt.Fprintf(os.Stderr, "perfbench: %d units, %d latency samples (%d per unit)\n",
		len(units), samples, samples/len(units))
}

// layerMetrics fills the traced run's per-layer metrics from its traced
// units (per-unit means), writes the spans and CPU profiles under dir, and
// adds the tracing overhead against the run's untraced units.
func layerMetrics(out *outcome, units []unitResult, tr *tracer, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var tracedWall, plainWall []float64
	n := 0.0
	sum := map[string]float64{}
	var use usage
	var handler, overhead, transport []float64
	cpuMods := map[string]float64{}
	for i, u := range units {
		if !u.traced {
			plainWall = append(plainWall, u.use.wall.Seconds())
			continue
		}
		n++
		tracedWall = append(tracedWall, u.use.wall.Seconds())
		for k, v := range u.work {
			sum[k] += float64(v)
		}
		for k, v := range u.layer {
			sum[k] += v
		}
		use.allocBytes += u.use.allocBytes
		use.allocObjs += u.use.allocObjs
		use.gcCPU += u.use.gcCPU
		use.gcCycles += u.use.gcCycles
		handler = append(handler, u.handlerMS...)
		overhead = append(overhead, u.overheadMS...)
		transport = append(transport, u.transportMS...)
		path := filepath.Join(dir, fmt.Sprintf("cpu-unit%d.pprof", i))
		if err := os.WriteFile(path, u.profile, 0o644); err != nil {
			return err
		}
		mods, err := attributeCPU(u.profile)
		if err != nil {
			return err
		}
		for m, v := range mods {
			cpuMods[m] += v
		}
	}
	if err := tr.write(filepath.Join(dir, "spans.json")); err != nil {
		return err
	}
	put := func(name string, v float64, unit string) { out.metrics[name] = metric{v, unit} }
	per := func(name string) float64 { return sum[name] / n }
	span := func(name string) float64 { return tr.total(name) / n }

	// Phase times come from the engine's progress events where the
	// benchmark calls the engine itself, and from the flight report's
	// wall section where the server does.
	plan := span("search.plan") + per("flight.plan_s")
	search := span("search.search") + per("flight.search_s")
	solverWall := per("solver.wall_s")
	steps := per("search.steps")

	put("lang.compile_s", span("lang.compile"), "s")
	put("lang.mir_instrs", per("lang.mir_instrs"), "count")
	put("lang.compile_hits", per("lang.compile_hits"), "count")
	put("search.plan_s", plan, "s")
	put("dist.cache_hits", per("dist.cache_hits"), "count")
	put("dist.cache_misses", per("dist.cache_misses"), "count")
	put("search.search_s", search, "s")
	put("search.self_s", search-solverWall, "s")
	put("search.steps_per_s", ratio(steps, search), "1/s")
	for _, k := range []string{"search.steps", "search.states", "search.forks.branch",
		"search.forks.sched", "search.pruned", "search.sheds", "search.segments"} {
		put(k, per(k), "count")
	}
	put("search.checkpoint_encode_s", per("search.checkpoint_encode_s"), "s")
	put("search.checkpoint_decode_s", span("search.checkpoint_decode"), "s")
	put("search.restore_s", per("search.restore_s"), "s")
	put("search.checkpoint_mb", per("search.checkpoint_bytes")/1e6, "MB")
	put("symex.allocs_per_step", ratio(float64(use.allocObjs)/n, steps), "count")
	put("symex.bytes_per_step", ratio(float64(use.allocBytes)/n, steps), "B")
	put("solver.wall_s", solverWall, "s")
	put("solver.queries", per("solver.queries"), "count")
	put("solver.us_per_query", ratio(solverWall*1e6, per("solver.queries")), "us")
	put("solver.private_hits", per("solver.private_hits"), "count")
	put("solver.shared_hits", per("solver.shared_hits"), "count")
	put("trace.concretize_s", span("trace.concretize")+per("flight.concretize_s"), "s")
	put("replay.strict_s", span("replay.strict"), "s")
	put("service.handler_ms", quantile(handler, 0.5), "ms")
	put("service.overhead_ms", quantile(overhead, 0.5), "ms")
	put("service.transport_ms", quantile(transport, 0.5), "ms")
	put("service.rejected", per("service.rejected"), "count")
	put("jobs.preemptions", per("jobs.preemptions"), "count")
	put("expr.terms", per("expr.terms"), "count")
	put("expr.bytes", per("expr.bytes"), "B")
	put("runtime.gc_cpu_s", use.gcCPU/n, "s")
	put("runtime.gc_cycles", float64(use.gcCycles)/n, "count")
	total := 0.0
	for _, m := range modules {
		put(m+".cpu_s", cpuMods[m]/n, "s")
		total += cpuMods[m]
	}
	put("profile.cpu_s", total/n, "s")
	put("tracing.wall_s", median(tracedWall), "s")
	put("tracing.overhead_frac", ratio(median(tracedWall), median(plainWall))-1, "frac")
	put("tracing.uncovered_frac", median(tr.uncoveredShares()), "frac")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unitCtx accumulates one unit's requests, work counts and per-layer
// measurements. Its methods are safe for concurrent clients.
type unitCtx struct {
	tr *tracer // nil in untraced units

	mu        sync.Mutex
	nextReq   int
	attempted int
	errs      []string
	lat       []float64 // seconds per request
	work      map[string]int64
	layer     map[string]float64
	// Per-request service split (traced triage units).
	calls                              []clientCall
	handlerMS, overheadMS, transportMS []float64
}

// clientCall is one traced HTTP request as the client saw it.
type clientCall struct {
	req   int
	post  time.Duration // client send → reply read
	synth time.Duration // the reply's flight wall.total_ns
}

func newUnitCtx(firstReq int) *unitCtx {
	return &unitCtx{nextReq: firstReq, work: map[string]int64{}, layer: map[string]float64{}}
}

// begin starts a request: it returns the request ID and the ID of its
// root span.
func (u *unitCtx) begin() (req, rootID int) {
	u.mu.Lock()
	u.nextReq++
	u.attempted++
	req = u.nextReq
	u.mu.Unlock()
	return req, u.tr.newID()
}

func (u *unitCtx) fail(err error) {
	u.mu.Lock()
	u.errs = append(u.errs, err.Error())
	u.mu.Unlock()
}

func (u *unitCtx) latency(d time.Duration) {
	u.mu.Lock()
	u.lat = append(u.lat, d.Seconds())
	u.mu.Unlock()
}

func (u *unitCtx) addWorkKey(k string, v int64) {
	u.mu.Lock()
	u.work[k] += v
	u.mu.Unlock()
}

func (u *unitCtx) addLayer(k string, v float64) {
	u.mu.Lock()
	u.layer[k] += v
	u.mu.Unlock()
}

func (u *unitCtx) addInstrs(n int) { u.addWorkKey("lang.mir_instrs", int64(n)) }

// addWork adds one finished synthesis's exact work counts.
func (u *unitCtx) addWork(steps, states, branchForks, queries int64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.work["search.steps"] += steps
	u.work["search.states"] += states
	u.work["search.forks.branch"] += branchForks
	u.work["solver.queries"] += queries
}

// addFlight adds a flight report's counters. A report that came over
// HTTP (server) also supplies the phase and solver wall times the
// benchmark cannot time from outside the server, and the branch forks its
// reply's stats omit.
func (u *unitCtx) addFlight(fr *esd.FlightReport, local bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.work["search.forks.sched"] += fr.Forks["sched"]
	u.work["search.pruned"] += fr.Pruned["critical_edge"] + fr.Pruned["infinite_distance"]
	u.work["search.sheds"] += fr.Sheds
	if w := fr.Wall; w != nil {
		u.work["solver.private_hits"] += w.SolverCacheHits
		u.work["solver.shared_hits"] += w.SolverSharedHits
	}
	if local {
		return
	}
	u.work["search.forks.branch"] += fr.Forks["branch"]
	if w := fr.Wall; w != nil {
		u.layer["flight.plan_s"] += float64(w.TotalNS-w.SearchNS-w.SolverNS-w.SolveNS) / 1e9
		u.layer["flight.search_s"] += float64(w.SearchNS+w.SolverNS) / 1e9
		u.layer["flight.concretize_s"] += float64(w.SolveNS) / 1e9
		u.layer["solver.wall_s"] += float64(w.SolverNS) / 1e9
	}
}

func (u *unitCtx) clientCall(req int, post, synth time.Duration) {
	u.mu.Lock()
	u.calls = append(u.calls, clientCall{req, post, synth})
	u.mu.Unlock()
}

// joinHandlerSpans pairs each traced client call with the server-side
// handler span the timing wrapper recorded for it, once every handler has
// returned.
func (u *unitCtx) joinHandlerSpans(h *timedHandler) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, c := range u.calls {
		hs, ok := h.take(c.req)
		if !ok {
			continue
		}
		hd := hs.end.Sub(hs.start)
		u.tr.add(hs.parent, c.req, "service.handler", hs.start, hs.end)
		u.handlerMS = append(u.handlerMS, ms(hd))
		u.overheadMS = append(u.overheadMS, ms(hd-c.synth))
		u.transportMS = append(u.transportMS, ms(c.post-hd))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// synthesize runs one Engine.Synthesize call under a span. Traced units
// add the flight recorder and turn the progress events into phase spans.
// It returns the call's analyze→search interval (0 untraced).
func (u *unitCtx) synthesize(ctx context.Context, eng *esd.Engine, rootID, req int, prog *esd.Program, rep *esd.BugReport, resumed bool, opts ...esd.SynthOption) (*esd.Result, time.Duration, error) {
	opts = append([]esd.SynthOption{esd.WithSeed(fixedSynthSeed), esd.WithBudget(synthBudget)}, opts...)
	id := u.tr.newID()
	var ph *phaseSpans
	if u.tr != nil {
		ph = &phaseSpans{tr: u.tr, parent: id, req: req, resumed: resumed}
		opts = append(opts, esd.WithTelemetry(), esd.OnProgress(ph.onProgress))
	}
	t := time.Now()
	res, err := eng.Synthesize(ctx, prog, rep, opts...)
	end := time.Now()
	u.tr.record(id, rootID, req, "esd.synthesize", t, end)
	if err != nil {
		return nil, 0, err
	}
	var plan time.Duration
	if ph != nil {
		ph.close(end)
		plan = ph.analyze
	}
	if !res.Preempted {
		// Counters are cumulative over a resume chain: count the last
		// segment only.
		st := res.Stats
		u.addWork(st.Steps, st.States, st.BranchForks, int64(st.SolverQueries))
		u.addLayer("solver.wall_s", float64(st.SolverWallNanos)/1e9)
		if fr := res.Report(); fr != nil {
			u.addFlight(fr, true)
		}
	}
	return res, plan, nil
}

// verify strict-replays ex and checks that the final state matches the
// report — the benchmark's correctness check for every request.
func (u *unitCtx) verify(rootID, req int, prog *esd.Program, rep *esd.BugReport, ex *esd.Execution) error {
	t := time.Now()
	defer func() { u.tr.add(rootID, req, "replay.strict", t, time.Now()) }()
	p, err := esd.NewPlayer(prog, ex, esd.Strict)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	final, err := p.Run(maxReplaySteps)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !rep.R.Matches(final) {
		return errors.New("strict replay does not reproduce the reported bug")
	}
	return nil
}
