// triage: the automated bug-triage usage model of §8.
//
// In a bug-tracking pipeline, every incoming coredump is passed through
// ESD; the synthesized execution is attached to the ticket, and two
// tickets whose synthesized executions are identical are duplicates of the
// same bug. This example files three "tickets" against the ls utility —
// two different manifestations of the same injected bug and one distinct
// bug — and shows deduplication finding the pair.
//
// Run with: go run ./examples/triage
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"esd"
	"esd/internal/apps"
	"esd/internal/usersite"
)

func main() {
	app := apps.Get("ls2") // all four ls bugs live in the same binary
	m, err := app.Program()
	if err != nil {
		log.Fatal(err)
	}
	prog := &esd.Program{MIR: m}

	// Three user reports: two users hit the -r -t empty-directory crash
	// (with different terminal widths — irrelevant noise), one hit the
	// unknown-option crash.
	tickets := []struct {
		id string
		in *esd.UserInputs
	}{
		{"TICKET-101", &usersite.Inputs{Named: map[string]int64{
			"opt1": 'r', "opt2": 't', "opt3": 0, "opt4": 0,
			"dir_seed": 9, "dir_count": 0, "term_width": 80}}},
		{"TICKET-102", &usersite.Inputs{Named: map[string]int64{
			"opt1": 't', "opt2": 'r', "opt3": 0, "opt4": 0,
			"dir_seed": 4242, "dir_count": 0, "term_width": 132}}},
		{"TICKET-103", &usersite.Inputs{Named: map[string]int64{
			"opt1": '-', "opt2": 'x', "opt3": 0, "opt4": 0,
			"dir_seed": 1, "dir_count": 3, "term_width": 80}}},
	}

	// Every ticket is one Synthesize call on the same engine, so they all
	// share one compiled program, one set of distance tables, and the warm
	// solver pool.
	eng := esd.New()
	execs := map[string]*esd.Execution{}
	for _, tk := range tickets {
		rep, err := esd.SimulateUserSite(prog, tk.in)
		if err != nil {
			log.Fatalf("%s: user site: %v", tk.id, err)
		}
		res, err := eng.Synthesize(context.Background(), prog, rep,
			esd.WithBudget(60*time.Second), esd.WithSeed(1))
		if err != nil {
			log.Fatalf("%s: %v", tk.id, err)
		}
		if !res.Found {
			log.Fatalf("%s: synthesis failed", tk.id)
		}
		execs[tk.id] = res.Execution
		fmt.Printf("%s: synthesized (%s) fingerprint %s\n",
			tk.id, res.Execution.E.BugSummary, res.Execution.E.Fingerprint())
	}

	fmt.Println("\ndeduplication:")
	ids := []string{"TICKET-101", "TICKET-102", "TICKET-103"}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			same := execs[ids[i]].SameBug(execs[ids[j]])
			verdict := "distinct bugs"
			if same {
				verdict = "SAME bug — mark duplicate"
			}
			fmt.Printf("  %s vs %s: %s\n", ids[i], ids[j], verdict)
		}
	}
}
