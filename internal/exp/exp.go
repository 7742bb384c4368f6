// Package exp drives the paper's evaluation (§7): it regenerates Table 1
// and Figures 2, 3 and 4, plus the ablation study of the three search-
// focusing techniques. Both the esdexp command and the repository's
// benchmarks call into it.
//
// Absolute times differ from the paper's 2008 Xeon + Klee stack; what the
// harness preserves is the comparison shape: which tool finds each bug,
// who times out, and how synthesis time scales with program complexity.
// The paper's 1-hour cap is scaled down (default 60 s, configurable).
package exp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"esd/internal/apps"
	"esd/internal/bpf"
	"esd/internal/report"
	"esd/internal/search"
	"esd/internal/usersite"
)

// Config tunes an experiment run.
type Config struct {
	// Timeout is the per-search cap (stand-in for the paper's 1 hour).
	Timeout time.Duration
	// Seed drives search randomness.
	Seed int64
	// MaxBPFExp bounds Figure 3/4 to branch counts 2^4..2^MaxBPFExp
	// (default 11, the paper's full sweep; lower it for quick runs).
	MaxBPFExp int
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBPFExp == 0 {
		c.MaxBPFExp = 11
	}
	return c
}

// Outcome is one (bug, strategy) measurement.
type Outcome struct {
	Found bool
	// Status names how the search ended (search.Result.Outcome): found,
	// timeout (the budget ran out), step_cap (the instruction cap did),
	// or, for a frontier that ran dry, exhausted or incomplete.
	Status   string
	Duration time.Duration
	Steps    int64
	States   int64
}

// outcome measures one finished search.
func outcome(res *search.Result) Outcome {
	return Outcome{Found: res.Found != nil, Status: res.Outcome.String(), Duration: res.Duration, Steps: res.Steps, States: res.StatesCreated}
}

// String renders the time to the bug, or how the search ended without
// it: a timeout as a lower bound, any other ending (the step cap, a
// frontier that ran dry) with its status.
func (o Outcome) String() string {
	if o.Status == "timeout" {
		return fmt.Sprintf(">%.0fs (timeout)", o.Duration.Seconds())
	}
	d := fmt.Sprintf("%.2fs", o.Duration.Seconds())
	if o.Duration < time.Second {
		d = fmt.Sprintf("%dms", o.Duration.Milliseconds())
	}
	if o.Found {
		return d
	}
	return fmt.Sprintf("%s (%s)", d, o.Status)
}

// appProgram compiles a bundled app for synthesis and returns it with
// its coredump. Every run of a sweep over the app shares the one program,
// and with it the distance tables.
func appProgram(a *apps.App) (*search.Program, *report.Report, error) {
	prog, err := a.Program()
	if err != nil {
		return nil, nil, err
	}
	rep, err := a.Coredump()
	if err != nil {
		return nil, nil, err
	}
	return search.NewProgram(prog), rep, nil
}

// runApp measures one synthesis run.
func runApp(ctx context.Context, prog *search.Program, rep *report.Report, strat search.Strategy, preemptBound int, cfg Config) (Outcome, error) {
	res, err := search.Synthesize(ctx, prog, rep, search.Options{
		Strategy:        strat,
		Budget:          cfg.Timeout,
		Seed:            cfg.Seed,
		PreemptionBound: preemptBound,
	})
	if err != nil {
		return Outcome{}, err
	}
	if err := cancelled(ctx, res); err != nil {
		return Outcome{}, err
	}
	return outcome(res), nil
}

// cancelled aborts a sweep when a search was cut short by the context:
// without this, a Ctrl-C mid-table would fabricate "not found in ~0s"
// rows for every remaining measurement (each subsequent Synthesize
// returns immediately on the dead context) and print a bogus table.
func cancelled(ctx context.Context, res *search.Result) error {
	if res.Outcome != search.OutcomeCancelled {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// --- Table 1 ---------------------------------------------------------------

// Table1Row is one row of Table 1.
type Table1Row struct {
	System        string
	Manifestation string
	ESD           Outcome
}

// Table1 runs ESD on the eight real-system bugs.
func Table1(ctx context.Context, cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table1Row
	for _, a := range apps.Table1() {
		prog, rep, err := appProgram(a)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", a.Name, err)
		}
		out, err := runApp(ctx, prog, rep, search.StrategyESD, 0, cfg)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", a.Name, err)
		}
		rows = append(rows, Table1Row{System: a.Name, Manifestation: a.Manifestation, ESD: out})
	}
	return rows, nil
}

// PrintTable1 renders rows the way the paper prints Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: ESD applied to real bugs\n")
	fmt.Fprintf(w, "%-10s %-14s %s\n", "System", "Bug", "Execution synthesis time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-14s %s\n", r.System, r.Manifestation, r.ESD)
	}
}

// --- Figure 2 ---------------------------------------------------------------

// Fig2Row compares ESD with the two KC baselines on one bug.
type Fig2Row struct {
	Bug      string
	ESD      Outcome
	DFS      Outcome // KC with DFS search
	RandPath Outcome // KC with RandomPath search
}

// Figure2 runs the three tools over the Figure 2 bug set (ls1–ls4 plus the
// Table 1 bugs). KC = our engine with Chess-style preemption bounding (2)
// and Klee's DFS/RandomPath state selection (§7.2).
func Figure2(ctx context.Context, cfg Config) ([]Fig2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig2Row
	for _, a := range apps.Figure2() {
		prog, rep, err := appProgram(a)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", a.Name, err)
		}
		esdOut, err := runApp(ctx, prog, rep, search.StrategyESD, 0, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", a.Name, err)
		}
		dfsOut, err := runApp(ctx, prog, rep, search.StrategyDFS, 2, cfg)
		if err != nil {
			return nil, err
		}
		rpOut, err := runApp(ctx, prog, rep, search.StrategyRandomPath, 2, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Row{Bug: a.Name, ESD: esdOut, DFS: dfsOut, RandPath: rpOut})
	}
	return rows, nil
}

// PrintFigure2 renders the comparison as the log-scale bar data of Fig. 2.
func PrintFigure2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintf(w, "Figure 2: time to find a path to the bug, ESD vs KC (timeout bars fade)\n")
	fmt.Fprintf(w, "%-8s %14s %14s %14s\n", "bug", "ESD", "KC-DFS", "KC-RandPath")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %14s %14s %14s\n", r.Bug, r.ESD, r.DFS, r.RandPath)
	}
}

// --- Figures 3 and 4 --------------------------------------------------------

// Fig3Row is one BPF configuration's measurement.
type Fig3Row struct {
	Branches int
	KLOC     float64
	ESD      Outcome
	KC       Outcome // KC with RandomPath (the variant shown in Fig. 3)
}

// Figure3 sweeps the BPF configurations (branches 2^4..2^MaxBPFExp, two
// threads, two locks, all branches input-dependent, one deadlock).
func Figure3(ctx context.Context, cfg Config) ([]Fig3Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig3Row
	for _, p := range bpf.StandardConfigs() {
		if p.Branches > 1<<cfg.MaxBPFExp {
			break
		}
		g, err := bpf.Generate(p)
		if err != nil {
			return nil, err
		}
		m, err := g.Compile()
		if err != nil {
			return nil, err
		}
		prog := search.NewProgram(m)
		rep, err := g.Coredump()
		if err != nil {
			return nil, fmt.Errorf("fig3 branches=%d: %w", p.Branches, err)
		}
		row := Fig3Row{Branches: p.Branches, KLOC: float64(g.Lines) / 1000}
		res, err := search.Synthesize(ctx, prog, rep, search.Options{
			Strategy: search.StrategyESD, Budget: cfg.Timeout, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		if err := cancelled(ctx, res); err != nil {
			return nil, err
		}
		row.ESD = outcome(res)
		res, err = search.Synthesize(ctx, prog, rep, search.Options{
			Strategy: search.StrategyRandomPath, Budget: cfg.Timeout, Seed: cfg.Seed, PreemptionBound: 2,
		})
		if err != nil {
			return nil, err
		}
		if err := cancelled(ctx, res); err != nil {
			return nil, err
		}
		row.KC = outcome(res)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFigure3 renders the branches-vs-time series.
func PrintFigure3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintf(w, "Figure 3: synthesis time vs number of branches (log-log)\n")
	fmt.Fprintf(w, "%-10s %14s %14s\n", "branches", "ESD", "KC")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %14s %14s\n", r.Branches, r.ESD, r.KC)
	}
}

// PrintFigure4 renders the same data keyed by program size (KLOC).
func PrintFigure4(w io.Writer, rows []Fig3Row) {
	fmt.Fprintf(w, "Figure 4: synthesis time vs program size (log-log)\n")
	fmt.Fprintf(w, "%-10s %14s\n", "KLOC", "ESD")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10.2f %14s\n", r.KLOC, r.ESD)
	}
}

// --- Ablation ---------------------------------------------------------------

// AblationRow measures ESD with focusing techniques disabled (§3.3 claims
// the three techniques buy orders of magnitude).
type AblationRow struct {
	Variant string
	Outcome Outcome
}

// Ablation runs the four ESD variants on one app.
func Ablation(ctx context.Context, appName string, cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	a := apps.Get(appName)
	if a == nil {
		return nil, fmt.Errorf("exp: unknown app %q", appName)
	}
	prog, rep, err := appProgram(a)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		opt  search.Options
	}{
		{"full ESD", search.Options{}},
		{"no proximity", search.Options{Ablate: search.Ablate{NoProximity: true}}},
		{"no intermediate goals", search.Options{Ablate: search.Ablate{NoIntermediateGoals: true}}},
		{"no critical-edge pruning", search.Options{Ablate: search.Ablate{NoCriticalEdges: true}}},
		// The §4.1 schedule-distance ablation: collapse the graded
		// sync-distance metric back to the original near/far bit (and the
		// policies back to exact goal-site matching). On sequential apps
		// this ties full ESD; on deadlocks it shows what the gradation buys.
		{"binary sched-distance", search.Options{Ablate: search.Ablate{BinarySchedDist: true}}},
		{"all disabled", search.Options{Ablate: search.Ablate{
			NoProximity: true, NoIntermediateGoals: true, NoCriticalEdges: true}}},
	}
	var rows []AblationRow
	for _, v := range variants {
		opt := v.opt
		opt.Strategy = search.StrategyESD
		opt.Budget = cfg.Timeout
		opt.Seed = cfg.Seed
		res, err := search.Synthesize(ctx, prog, rep, opt)
		if err != nil {
			return nil, err
		}
		if err := cancelled(ctx, res); err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: v.name, Outcome: outcome(res)})
	}
	return rows, nil
}

// PrintAblation renders the ablation table.
func PrintAblation(w io.Writer, app string, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation on %s: contribution of the search-focusing techniques\n", app)
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %14s  (%d steps, %d states)\n", r.Variant, r.Outcome, r.Outcome.Steps, r.Outcome.States)
	}
}

// --- Stress baseline ---------------------------------------------------------

// StressResult reports the brute-force baseline of §7.2.
type StressResult struct {
	App        string
	Runs       int
	Reproduced int
}

// Stress runs each Table 1 app under random inputs and schedules (no
// guidance) and counts reproductions — the paper reports zero.
func Stress(ctx context.Context, runs int, cfg Config) ([]StressResult, error) {
	cfg = cfg.withDefaults()
	if runs == 0 {
		runs = 300
	}
	var out []StressResult
	for _, a := range apps.Table1() {
		prog, err := a.Program()
		if err != nil {
			return nil, err
		}
		rep, err := a.Coredump()
		if err != nil {
			return nil, err
		}
		hit := 0
		for seed := int64(0); seed < int64(runs); seed++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			in := randomInputs(a, seed)
			st, err := usersite.RunOnce(prog, in, usersite.Options{PreemptPercent: 40}, seed)
			if err != nil {
				return nil, err
			}
			if report.IsFailure(st) && rep.Matches(st) {
				hit++
			}
		}
		out = append(out, StressResult{App: a.Name, Runs: runs, Reproduced: hit})
	}
	return out, nil
}

// randomInputs builds arbitrary inputs unrelated to the triggering ones.
func randomInputs(a *apps.App, seed int64) *usersite.Inputs {
	h := seed*2654435761 + 12345
	in := &usersite.Inputs{
		Stdin: []int64{h % 256, (h / 7) % 256, (h / 49) % 256},
		Env:   map[string]string{},
		Named: map[string]int64{},
	}
	if a.UserInputs != nil {
		for k := range a.UserInputs.Env {
			in.Env[k] = string(rune('A' + h%26))
		}
		for k := range a.UserInputs.Named {
			in.Named[k] = (h % 37) - 18
			h = h*31 + 7
		}
	}
	return in
}

// PrintStress renders the stress baseline.
func PrintStress(w io.Writer, rows []StressResult) {
	fmt.Fprintf(w, "Stress baseline: random inputs + random schedules (paper: no bug manifested)\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %d/%d reproduced\n", r.App, r.Reproduced, r.Runs)
	}
}

// Banner renders the standard harness header.
func Banner(cfg Config) string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf("ESD evaluation harness (timeout %s, seed %d)\n%s\n",
		cfg.Timeout, cfg.Seed, strings.Repeat("-", 60))
}
