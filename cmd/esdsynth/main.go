// Command esdsynth is the developer-facing synthesis CLI of §8:
//
//	esdsynth -core coredump.json -src program.c [-crash|-deadlock|-race]
//	         [-o exec.json] [-strategy esd|dfs|randpath] [-timeout 60s]
//	esdsynth -app sqlite [-o exec.json]     # run on a bundled evaluated app
//	esdsynth -app pipeline -parallel 4      # frontier-parallel search, 4 workers
//	esdsynth -app ls4 -job ck.json          # Ctrl-C checkpoints to ck.json
//	                                        # instead of cancelling
//	esdsynth -app ls4 -resume ck.json -job ck.json   # continue a checkpointed
//	                                                 # search (repeatable)
//	esdsynth -app ls4 -cache-dir ~/.cache/esd        # warm cross-run solver cache
//
// It reads the coredump, synthesizes an execution that reproduces the
// reported bug, and writes the synthesized execution file for esdplay.
//
// -cache-dir persists definite solver verdicts across runs: a second run
// of the same app against the same directory serves those components
// from disk instead of re-solving them. Warm runs obey the same
// determinism contract as cold ones — the synthesized execution, seed
// replay, and flight report's deterministic body are byte-identical
// whether the cache was cold or warm; only wall-clock time (and the
// cache-hit counters printed after the run) differ. Stored models are
// re-verified against the live constraints before use, so a stale or
// foreign cache directory can slow a run down but never change its
// result.
//
// A -job search interrupted with Ctrl-C is preempted at a deterministic
// point and serialized to the checkpoint file; resuming it (possibly in a
// new process) continues the identical search, and the final result is
// byte-for-byte what the uninterrupted run would have produced.
//
// Observability: -trace flight.json records a per-synthesis flight report
// (phase transitions, sampled frontier snapshots, fork/prune/solver
// counters); -metrics metrics.prom dumps the process-wide telemetry
// registry in Prometheus text format after the run; -progress includes an
// instantaneous step rate derived from event timestamps.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"esd"
	"esd/internal/apps"
	"esd/internal/report"
	"esd/internal/telemetry"
)

func main() {
	var (
		coreFile = flag.String("core", "", "coredump (bug report) JSON file")
		srcFile  = flag.String("src", "", "MiniC source file of the program")
		appName  = flag.String("app", "", "bundled evaluated app (e.g. sqlite, ghttpd, listing1)")
		outFile  = flag.String("o", "execution.json", "output synthesized execution file")
		strategy = flag.String("strategy", "esd", "search strategy: esd, dfs, randpath")
		timeout  = flag.Duration("timeout", 60*time.Second, "synthesis time budget")
		seed     = flag.Int64("seed", 1, "search randomness seed")
		kindHint = flag.String("kind", "", "bug kind hint: crash, deadlock, race (overrides coredump)")
		raceDet  = flag.Bool("with-race-det", false, "enable data-race detection during synthesis")
		bound    = flag.Int("preemption-bound", 0, "use Chess-style preemption bounding (KC baseline)")
		progress = flag.Bool("progress", false, "stream search progress to stderr")
		parallel = flag.Int("parallel", 0, "frontier-parallel search workers (0/1 = sequential)")
		traceOut = flag.String("trace", "", "write the per-synthesis flight report (JSON) to this file")
		metrics  = flag.String("metrics", "", "write the telemetry registry (Prometheus text) to this file after the run")
		jobFile  = flag.String("job", "", "checkpoint file: Ctrl-C preempts the search into it (resume with -resume) instead of cancelling; incompatible with -parallel")
		resume   = flag.String("resume", "", "resume the search from this checkpoint file (written by an earlier -job run)")
		cacheDir = flag.String("cache-dir", "", "persistent cross-run solver cache directory (verdicts survive process restarts; results stay identical to a cold run)")
	)
	flag.Parse()
	if (*jobFile != "" || *resume != "") && *parallel > 1 {
		fatal(fmt.Errorf("-job/-resume checkpoint a single deterministic search; drop -parallel"))
	}

	// Ctrl-C cancels the search promptly (reported as "cancelled", not a
	// timeout) instead of letting the budget run out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	prog, rep, err := loadTarget(*appName, *srcFile, *coreFile)
	if err != nil {
		fatal(err)
	}
	if *kindHint != "" {
		switch *kindHint {
		case "crash":
			rep.R.Kind = report.KindCrash
		case "deadlock":
			rep.R.Kind = report.KindDeadlock
		case "race":
			rep.R.Kind = report.KindRace
		default:
			fatal(fmt.Errorf("unknown -kind %q", *kindHint))
		}
	}

	var strat esd.Strategy
	switch *strategy {
	case "esd":
		strat = esd.ESD
	case "dfs":
		strat = esd.DFS
	case "randpath":
		strat = esd.RandomPath
	default:
		fatal(fmt.Errorf("unknown -strategy %q", *strategy))
	}

	fmt.Printf("esdsynth: synthesizing %s bug (%s strategy, %s budget)\n", rep.R.Kind, strat, timeout)
	fmt.Print(rep.String())

	var engOpts []esd.Option
	if *cacheDir != "" {
		engOpts = append(engOpts, esd.WithPersistentCache(*cacheDir))
	}
	eng := esd.New(engOpts...)
	if err := eng.PersistentCacheError(); err != nil {
		fatal(err)
	}
	defer eng.Close()
	synthOpts := []esd.SynthOption{
		esd.WithStrategy(strat),
		esd.WithBudget(*timeout),
		esd.WithSeed(*seed),
		esd.WithPreemptionBound(*bound),
	}
	if *raceDet {
		synthOpts = append(synthOpts, esd.WithRaceDetection())
	}
	if *parallel > 1 {
		synthOpts = append(synthOpts, esd.WithParallelism(*parallel))
	}
	if *resume != "" {
		data, err := os.ReadFile(*resume)
		if err != nil {
			fatal(err)
		}
		ck, err := esd.DecodeCheckpoint(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *resume, err))
		}
		synthOpts = append(synthOpts, esd.WithResume(ck))
		fmt.Printf("resuming search from %s\n", *resume)
	}
	runCtx := ctx
	if *jobFile != "" {
		// Ctrl-C becomes a preemption, not a cancellation: the search parks
		// at a deterministic point and serializes itself. The engine context
		// stays live — cancelling it would race the checkpoint. A second
		// Ctrl-C kills the process the usual way (NotifyContext stops
		// relaying after the first).
		runCtx = context.Background()
		synthOpts = append(synthOpts, esd.WithPreempt(func() bool { return ctx.Err() != nil }))
	}
	if *traceOut != "" {
		synthOpts = append(synthOpts, esd.WithTelemetry())
	}
	if *progress {
		var lastTime time.Time
		var lastSteps int64
		synthOpts = append(synthOpts, esd.OnProgress(func(ev esd.ProgressEvent) {
			rate := 0.0
			if dt := ev.Time.Sub(lastTime); !lastTime.IsZero() && dt > 0 {
				rate = float64(ev.Steps-lastSteps) / dt.Seconds()
			}
			lastTime, lastSteps = ev.Time, ev.Steps
			fmt.Fprintf(os.Stderr, "[%7.2fs] %-7s steps=%-10d (%8.0f/s) states=%-7d live=%-6d depth=%-8d best=%d\n",
				ev.Elapsed.Seconds(), ev.Phase, ev.Steps, rate, ev.States, ev.Live, ev.Depth, ev.BestDist)
		}))
	}
	res, err := eng.Synthesize(runCtx, prog, rep, synthOpts...)
	if err != nil {
		fatal(err)
	}
	if res.Preempted {
		if err := os.WriteFile(*jobFile, res.Checkpoint, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("search preempted after %.2fs (%d instructions, %d states)\n",
			res.Stats.Duration.Seconds(), res.Stats.Steps, res.Stats.States)
		fmt.Printf("checkpoint (%d bytes) written to %s\n", len(res.Checkpoint), *jobFile)
		fmt.Printf("continue with: esdsynth <same flags> -resume %s -job %s\n", *jobFile, *jobFile)
		return
	}
	if *traceOut != "" {
		if fr := res.Report(); fr != nil {
			data, err := fr.JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("flight report written to %s\n", *traceOut)
		}
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fatal(err)
		}
		telemetry.WritePrometheus(f)
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("telemetry registry written to %s\n", *metrics)
	}
	fmt.Printf("search: %.2fs, %d instructions, %d states, %d solver queries\n",
		res.Stats.Duration.Seconds(), res.Stats.Steps, res.Stats.States, res.Stats.SolverQueries)
	if *cacheDir != "" {
		fmt.Printf("persistent cache: %d hits, %d verify rejects\n",
			res.Stats.SolverPersistentHits, res.Stats.SolverVerifyRejects)
	}
	for _, b := range res.OtherBugs {
		fmt.Printf("note: different bug discovered during search: %s\n", b)
	}
	if !res.Found {
		switch {
		case res.Cancelled:
			fatal(fmt.Errorf("synthesis cancelled"))
		case res.TimedOut:
			fatal(fmt.Errorf("no execution synthesized before the time budget or the search's step cap ran out"))
		case res.Stats.Sheds > 0:
			fatal(fmt.Errorf("search ended without reproducing the bug, but the space was not exhausted: %d states were dropped over the live-state budget", res.Stats.Sheds))
		}
		fatal(fmt.Errorf("search space exhausted without reproducing the bug"))
	}
	data, err := res.Execution.JSON()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*outFile, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("synthesized execution written to %s\n", *outFile)
	fmt.Print(res.Execution.String())
	fmt.Printf("play it back with: esdplay -src <program.c> -exec %s\n", *outFile)
}

func loadTarget(appName, srcFile, coreFile string) (*esd.Program, *esd.BugReport, error) {
	if appName != "" {
		a := apps.Get(appName)
		if a == nil {
			return nil, nil, fmt.Errorf("unknown app %q; available: %s", appName, appList())
		}
		m, err := a.Program()
		if err != nil {
			return nil, nil, err
		}
		r, err := a.Coredump()
		if err != nil {
			return nil, nil, err
		}
		return &esd.Program{MIR: m}, &esd.BugReport{R: r}, nil
	}
	if srcFile == "" || coreFile == "" {
		return nil, nil, fmt.Errorf("need -src and -core (or -app); see -h")
	}
	src, err := os.ReadFile(srcFile)
	if err != nil {
		return nil, nil, err
	}
	prog, err := esd.CompileMiniC(srcFile, string(src))
	if err != nil {
		return nil, nil, err
	}
	core, err := os.ReadFile(coreFile)
	if err != nil {
		return nil, nil, err
	}
	rep, err := esd.ReportFromJSON(core)
	if err != nil {
		return nil, nil, err
	}
	return prog, rep, nil
}

func appList() string {
	s := ""
	for i, a := range apps.All() {
		if i > 0 {
			s += ", "
		}
		s += a.Name
	}
	return s
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "esdsynth: %v\n", err)
	os.Exit(1)
}
