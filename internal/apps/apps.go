// Package apps contains MiniC reproductions of every bug in the paper's
// evaluation (§7.1, Table 1 and Figure 2), plus the Listing 1 running
// example.
//
// We cannot ship the original C programs (SQLite is >100 KLOC of C), so
// each reproduction preserves the published bug mechanism — the same
// locking discipline, the same overflow pattern, the same error-handling
// path — surrounded by realistic distractor logic so the synthesis search
// problem is non-trivial. Program sizes are scaled down but ordered like
// the originals (SQLite largest, mkfifo smallest). The paper's §7.1
// describes the original programs and their bugs.
//
// Each App carries the concrete inputs with which "the user" hit the bug;
// the user-site simulator (internal/usersite) runs the program under random
// schedules until it fails and takes the coredump. Synthesis then starts
// from that coredump alone.
package apps

import (
	"fmt"
	"sync"

	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/report"
	"esd/internal/usersite"
)

// App is one evaluated buggy program.
type App struct {
	// Name is the row label used in Table 1 / Figure 2.
	Name string
	// Manifestation is "hang" or "crash" (Table 1's second column).
	Manifestation string
	// Kind is the bug-class hint passed to esdsynth.
	Kind report.Kind
	// Source is the MiniC program.
	Source string
	// UserInputs are the concrete inputs of the user-site failure run.
	UserInputs *usersite.Inputs
	// Usersite tunes the user-site schedule fuzzing.
	Usersite usersite.Options
	// Description explains the real bug being modeled.
	Description string

	once    sync.Once
	prog    *mir.Program
	progErr error

	repOnce sync.Once
	rep     *report.Report
	repErr  error
}

// Program compiles (and caches) the app.
func (a *App) Program() (*mir.Program, error) {
	a.once.Do(func() {
		a.prog, a.progErr = lang.Compile(a.Name+".c", a.Source)
	})
	return a.prog, a.progErr
}

// Coredump simulates the user site until the bug manifests and returns the
// resulting bug report (cached: the user hit the bug once).
func (a *App) Coredump() (*report.Report, error) {
	a.repOnce.Do(func() {
		prog, err := a.Program()
		if err != nil {
			a.repErr = err
			return
		}
		st, _, err := usersite.Reproduce(prog, a.UserInputs, a.Usersite)
		if err != nil {
			a.repErr = fmt.Errorf("apps: %s: %w", a.Name, err)
			return
		}
		a.rep, a.repErr = report.FromState(st)
		if a.repErr == nil && a.rep.Kind != a.Kind {
			// The user-site run can fail with the expected class only;
			// anything else means the reproduction itself is wrong.
			a.repErr = fmt.Errorf("apps: %s: user site failed with %v, want %v", a.Name, a.rep.Kind, a.Kind)
		}
	})
	return a.rep, a.repErr
}

var registry []*App
var byName = map[string]*App{}

func register(a *App) *App {
	registry = append(registry, a)
	byName[a.Name] = a
	return a
}

// All returns every evaluated app in Table 1 / Figure 2 order.
func All() []*App { return registry }

// Table1 returns the eight real-system bugs of Table 1.
func Table1() []*App {
	var out []*App
	for _, a := range registry {
		switch a.Name {
		case "sqlite", "hawknl", "ghttpd", "paste", "mknod", "mkdir", "mkfifo", "tac":
			out = append(out, a)
		}
	}
	return out
}

// Figure2 returns the Figure 2 bug set: ls1–ls4 plus the Table 1 bugs.
func Figure2() []*App {
	var out []*App
	for _, a := range registry {
		switch a.Name {
		case "ls1", "ls2", "ls3", "ls4",
			"ghttpd", "tac", "mkdir", "mkfifo", "mknod", "paste", "hawknl", "sqlite":
			out = append(out, a)
		}
	}
	return out
}

// Get returns the named app, or nil.
func Get(name string) *App { return byName[name] }
