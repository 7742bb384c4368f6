// Command esdbpf generates BPF microbenchmark programs (§7.3) and
// optionally runs a synthesis measurement on one configuration:
//
//	esdbpf -branches 64 -dump               # print the generated MiniC
//	esdbpf -branches 64 -run                # measure ESD vs KC on it
//	esdbpf -branches 64 -emit-core core.json -emit-src bpf.c
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"esd/internal/bpf"
	"esd/internal/search"
)

func main() {
	var (
		branches = flag.Int("branches", 16, "number of branches")
		inputs   = flag.Int("inputs", 8, "number of program inputs")
		threads  = flag.Int("threads", 2, "number of threads")
		locks    = flag.Int("locks", 2, "number of locks")
		seed     = flag.Int64("seed", 4, "generation seed")
		dump     = flag.Bool("dump", false, "print the generated program")
		run      = flag.Bool("run", false, "run ESD and KC on the generated program")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-search budget for -run")
		emitSrc  = flag.String("emit-src", "", "write generated MiniC source to file")
		emitCore = flag.String("emit-core", "", "write user-site coredump JSON to file")
	)
	flag.Parse()

	g, err := bpf.Generate(bpf.Params{
		Inputs: *inputs, Branches: *branches, InputDependent: *branches,
		Threads: *threads, Locks: *locks, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bpf: %d branches, %d inputs, %d threads, %d locks — %d lines (%.2f KLOC)\n",
		*branches, *inputs, *threads, *locks, g.Lines, float64(g.Lines)/1000)

	if *dump {
		fmt.Println(g.Source)
	}
	if *emitSrc != "" {
		if err := os.WriteFile(*emitSrc, []byte(g.Source), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("source written to", *emitSrc)
	}
	if *emitCore != "" || *run {
		rep, err := g.Coredump()
		if err != nil {
			fatal(err)
		}
		if *emitCore != "" {
			data, err := rep.Encode()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*emitCore, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("coredump written to", *emitCore)
		}
		if *run {
			m, err := g.Compile()
			if err != nil {
				fatal(err)
			}
			// Both strategies share the program's distance tables.
			prog := search.NewProgram(m)
			for _, cfg := range []struct {
				name  string
				strat search.Strategy
				bound int
			}{
				{"ESD", search.StrategyESD, 0},
				{"KC-RandPath", search.StrategyRandomPath, 2},
			} {
				res, err := search.Synthesize(context.Background(), prog, rep, search.Options{
					Strategy: cfg.strat, PreemptionBound: cfg.bound,
					Budget: *timeout, Seed: 1,
				})
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%-12s %-10s %8.2fs  steps=%d states=%d\n",
					cfg.name, res.Outcome, res.Duration.Seconds(), res.Steps, res.StatesCreated)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "esdbpf: %v\n", err)
	os.Exit(1)
}
