// Command esdserve runs the execution-synthesis debugger as an HTTP/JSON
// service — the deployment the paper sketches in §1/§8: developers (or a
// triage pipeline) hand coredumps to a long-lived service that answers
// with synthesized executions.
//
//	esdserve -addr :8080 [-max-concurrent 4] [-max-parallelism 8]
//	         [-default-budget 60s] [-max-budget 10m]
//	         [-data-dir /var/lib/esd] [-job-slice 2s]
//	         [-cache-dir /var/cache/esd] [-debug-addr localhost:6060]
//
// Endpoints (see internal/service for the full wire contract):
//
//	POST   /compile          compile MiniC source, get a reusable program_id
//	POST   /synthesize       synthesize one coredump (SSE progress with "stream")
//	POST   /batch            synthesize many coredumps of one program
//	POST   /jobs             submit an asynchronous synthesis job (202 + job ID)
//	GET    /jobs             list job records
//	GET    /jobs/{id}        poll one job record (result when done)
//	GET    /jobs/{id}/events SSE stream of the job's state transitions
//	DELETE /jobs/{id}        cancel and remove a job
//	GET    /healthz          liveness + engine/interner/job-store observability
//	GET    /metrics          Prometheus text exposition of the telemetry registry
//	                         plus engine/service/jobs series
//
// -data-dir makes the job store durable (WAL + snapshot in that
// directory): accepted jobs survive a crash or restart, resuming from
// their last persisted search checkpoint. Without it jobs live in memory.
//
// -cache-dir adds the persistent cross-run solver-cache tier: definite
// component verdicts (keyed by canonical structural fingerprints, so
// they survive restarts) are written there and
// consulted by every later synthesis of the same program, including
// after a server restart. Safe to share with past or future runs — Sat
// models are re-verified against live terms before a hit is served.
// -job-slice is the scheduler quantum: a synthesis running longer is
// preempted into a checkpoint and requeued, so long jobs round-robin
// instead of monopolizing workers (0 disables slicing).
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ — kept off the public address so profiling endpoints are
// never exposed alongside the service API by accident.
//
// Example:
//
//	curl -s -X POST localhost:8080/synthesize -d '{"app":"listing1"}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"time"

	"esd"
	"esd/internal/jobs"
	"esd/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxConcurrent = flag.Int("max-concurrent", 4, "max simultaneous /synthesize and /batch syntheses (excess requests get 429), and the number of /jobs workers")
		maxParallel   = flag.Int("max-parallelism", 8, "cap on per-request frontier parallelism")
		defaultBudget = flag.Duration("default-budget", 60*time.Second, "budget for requests without budget_ms")
		maxBudget     = flag.Duration("max-budget", 10*time.Minute, "cap on requested budgets")
		debugAddr     = flag.String("debug-addr", "",
			"listen address for the pprof debug server (e.g. localhost:6060; empty disables)")
		dataDir  = flag.String("data-dir", "", "directory for the durable job store (empty = in-memory jobs)")
		cacheDir = flag.String("cache-dir", "", "directory for the persistent cross-run solver cache (empty = in-memory caching only)")
		jobSlice = flag.Duration("job-slice", 2*time.Second, "scheduler quantum before a running job is checkpointed and requeued (0 disables)")
	)
	flag.Parse()
	if *jobSlice <= 0 {
		// The service treats zero as "use the default"; a negative config
		// value is the explicit off switch the flag's 0 means.
		*jobSlice = -1
	}

	var store *jobs.Store
	if *dataDir != "" {
		st, err := jobs.Open(*dataDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "esdserve: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		store = st
		log.Printf("esdserve: durable job store in %s", *dataDir)
	}

	var engOpts []esd.Option
	if *cacheDir != "" {
		engOpts = append(engOpts, esd.WithPersistentCache(*cacheDir))
	}
	eng := esd.New(engOpts...)
	if err := eng.PersistentCacheError(); err != nil {
		// Degraded, not fatal: the engine runs with in-memory caching only.
		log.Printf("esdserve: persistent solver cache: %v", err)
	} else if *cacheDir != "" {
		log.Printf("esdserve: persistent solver cache in %s", *cacheDir)
	}
	srv := service.New(eng, service.Config{
		DefaultBudget:  *defaultBudget,
		MaxBudget:      *maxBudget,
		MaxConcurrent:  *maxConcurrent,
		MaxParallelism: *maxParallel,
		JobStore:       store,
		JobSlice:       *jobSlice,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *debugAddr != "" {
		// The pprof import registers on http.DefaultServeMux; serving that
		// mux on a separate address keeps /debug/pprof/ off the API port.
		go func() {
			log.Printf("esdserve: pprof debug server on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil && err != http.ErrServerClosed {
				log.Printf("esdserve: debug server: %v", err)
			}
		}()
	}
	// drained closes once Shutdown returns: ListenAndServe returns as soon
	// as Shutdown starts, and requests in flight, each running its
	// syntheses on its handler, get up to 5 s to finish.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("esdserve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("esdserve: drain: %v", err)
		}
	}()

	log.Printf("esdserve: listening on %s (max-concurrent=%d, max-parallelism=%d, default-budget=%s, max-budget=%s)",
		*addr, *maxConcurrent, *maxParallel, *defaultBudget, *maxBudget)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "esdserve: %v\n", err)
		os.Exit(1)
	}
	<-drained
	// After the listener drains, park the job workers: running jobs are
	// preempted into checkpoints and persisted, so a durable store resumes
	// them on the next start.
	closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(closeCtx); err != nil {
		log.Printf("esdserve: job shutdown: %v", err)
	}
	// Compact the persistent solver cache after the job workers park, so
	// verdicts published by their final slices land in the snapshot.
	if err := eng.Close(); err != nil {
		log.Printf("esdserve: solver cache shutdown: %v", err)
	}
}
