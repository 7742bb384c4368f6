// sqlite-deadlock: debugging a library hang with the interactive workflow.
//
// This walks the Table-1 SQLite scenario (bug #1672, a deadlock rooted in
// the library's custom recursive mutex) the way §7.1 describes debugging a
// shared library: a driver program exercises the suspected entry points,
// the user-site coredump names only the two blocked call stacks, and ESD
// synthesizes configuration + schedule. The synthesized execution is then
// inspected with the playback debugger: breakpoints on the lock sites,
// thread states at the deadlock, and the happens-before event list.
//
// Run with: go run ./examples/sqlite-deadlock
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"esd"
	"esd/internal/apps"
)

// sourceLine finds the 1-based line of the first occurrence of needle.
func sourceLine(src, needle string) int {
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, needle) {
			return i + 1
		}
	}
	return 0
}

func main() {
	app := apps.Get("sqlite")
	m, err := app.Program()
	if err != nil {
		log.Fatal(err)
	}
	prog := &esd.Program{MIR: m}
	fmt.Printf("target: %s (%s)\n%s\n\n", app.Name, app.Manifestation, app.Description)

	rep, err := app.Coredump()
	if err != nil {
		log.Fatal(err)
	}
	bugReport := &esd.BugReport{R: rep}
	fmt.Println("the field coredump:")
	fmt.Println(bugReport)

	res, err := esd.New().Synthesize(context.Background(), prog, bugReport,
		esd.WithBudget(120*time.Second), esd.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		log.Fatal("synthesis failed")
	}
	fmt.Printf("synthesized in %.2fs\n", res.Stats.Duration.Seconds())
	fmt.Println(res.Execution)

	// Replay under the debugger: break at the recursive-mutex layer and
	// watch the threads converge on the deadlock.
	player, err := esd.NewPlayer(prog, res.Execution, esd.Strict)
	if err != nil {
		log.Fatal(err)
	}
	// Break on the OS-mutex acquisition inside the recursive-lock layer.
	bpLine := sourceLine(app.Source, "lock(&os_mutex);")
	player.AddBreakpoint("sqlite.c", bpLine)
	fmt.Printf("breakpoint set at sqlite.c:%d (lock(&os_mutex))\n", bpLine)

	hits := 0
	for {
		atBreak, err := player.Continue(2_000_000)
		if err != nil {
			log.Fatal(err)
		}
		if !atBreak {
			break
		}
		hits++
		fmt.Printf("\nbreakpoint hit #%d: %s\n", hits, player.Where())
		for _, line := range player.Backtrace() {
			fmt.Println("  " + line)
		}
		if err := player.StepInstr(); err != nil { // step over the breakpoint
			log.Fatal(err)
		}
	}

	fmt.Printf("\n%s\n", player.Describe())
	fmt.Println("final thread states:")
	for _, l := range player.ThreadsSummary() {
		fmt.Println("  " + l)
	}
	if v, err := player.ReadGlobal("os_owner"); err == nil {
		fmt.Printf("  os_owner = %v (library mutex holder at the hang)\n", v)
	}
}
