package esd_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"esd"
	"esd/internal/apps"
	"esd/internal/dist"
)

// synthProgram runs one seed-1 synthesis of prog and requires it to
// reproduce the bug.
func synthProgram(t *testing.T, eng *esd.Engine, prog *esd.Program, rep *esd.BugReport, opts ...esd.SynthOption) *esd.Result {
	t.Helper()
	opts = append([]esd.SynthOption{esd.WithBudget(time.Minute), esd.WithSeed(1)}, opts...)
	res, err := eng.Synthesize(context.Background(), prog, rep, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("synthesis did not reproduce the bug")
	}
	return res
}

// TestProgramKeepsSolversAcrossGC: a program keeps its idle solvers, and
// with them their memos, through garbage collections. A second synthesis
// run after two collections must start as warm as one run straight after
// the first: it re-solves no component, so it reads the same private-memo
// hits, and it builds no tables.
func TestProgramKeepsSolversAcrossGC(t *testing.T) {
	pair := func(collect bool) (first, second int, builds int64) {
		prog, rep := appProgReport(t, "listing1")
		eng := esd.New()
		first = synthProgram(t, eng, prog, rep).Stats.SolverCacheHits
		if collect {
			runtime.GC()
			runtime.GC()
		}
		_, misses0 := dist.SharedCacheStats()
		second = synthProgram(t, eng, prog, rep).Stats.SolverCacheHits
		_, misses := dist.SharedCacheStats()
		return first, second, misses - misses0
	}
	cold, warm, _ := pair(false)
	_, afterGC, builds := pair(true)
	if warm <= cold {
		t.Fatalf("back to back, the second run read %d memo hits against the first's %d: it did not start warm", warm, cold)
	}
	if afterGC != warm {
		t.Errorf("after two collections the second run read %d memo hits, back to back %d", afterGC, warm)
	}
	if builds != 0 {
		t.Errorf("after two collections the second run built tables %d times", builds)
	}
}

// TestProgramOwnsTables: a program's distance tables are built by its
// first synthesis and read by every later one; another program builds
// its own, even one wrapping the same MIR.
func TestProgramOwnsTables(t *testing.T) {
	prog, rep := appProgReport(t, "listing1")
	other := &esd.Program{MIR: prog.MIR}
	eng := esd.New()
	hits0, misses0 := dist.SharedCacheStats()
	for _, p := range []*esd.Program{prog, prog, prog, other, other} {
		synthProgram(t, eng, p, rep)
	}
	hits, misses := dist.SharedCacheStats()
	if misses-misses0 != 2 || hits-hits0 != 3 {
		t.Errorf("five syntheses of two programs counted %d table builds and %d reuses, want 2 and 3",
			misses-misses0, hits-hits0)
	}
}

// TestProgramConcurrentSyntheses: concurrent syntheses of one program
// build its tables once and take and give back its idle solvers. The
// program then holds no more idle solvers than ran at once, and a later
// synthesis takes one of them and gives it back.
func TestProgramConcurrentSyntheses(t *testing.T) {
	prog, rep := appProgReport(t, "listing1")
	eng := esd.New()
	const runs = 4
	hits0, misses0 := dist.SharedCacheStats()
	execs := make([][]byte, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := []esd.SynthOption{esd.WithBudget(time.Minute), esd.WithSeed(1)}
			if i == 0 {
				opts = append(opts, esd.WithParallelism(2))
			}
			res, err := eng.Synthesize(context.Background(), prog, rep, opts...)
			if err != nil || !res.Found {
				t.Errorf("run %d: found=%v err=%v", i, res != nil && res.Found, err)
				return
			}
			execs[i], err = res.Execution.JSON()
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 2; i < runs; i++ {
		if !bytes.Equal(execs[i], execs[1]) {
			t.Errorf("sequential run %d synthesized a different execution than run 1", i)
		}
	}
	hits, misses := dist.SharedCacheStats()
	if misses-misses0 != 1 || hits-hits0 != runs-1 {
		t.Errorf("%d concurrent syntheses counted %d table builds and %d reuses, want 1 and %d",
			runs, misses-misses0, hits-hits0, runs-1)
	}
	// The n=2 run took two solvers, every other run one.
	idle := esd.IdleSolvers(prog)
	if idle < 2 || idle > runs+1 {
		t.Fatalf("the program holds %d idle solvers after %d syntheses that used %d at most", idle, runs, runs+1)
	}
	res := synthProgram(t, eng, prog, rep)
	if got := esd.IdleSolvers(prog); got != idle {
		t.Errorf("a sequential synthesis left %d idle solvers, want the %d it found", got, idle)
	}
	if res.Stats.SolverCacheHits == 0 {
		t.Error("a synthesis after four took no memo hits: it ran on a cold solver")
	}
}

// TestEngineConcurrentCompileCounts: callers that miss the compile memo
// for one source at once compile it in parallel, and only the first
// program goes into the memo. Every other caller gets that program and
// counts as a hit, so the counters add up to the calls in every round.
func TestEngineConcurrentCompileCounts(t *testing.T) {
	src := apps.Get("ls4").Source
	const callers, rounds = 8, 20
	for round := range rounds {
		eng := esd.New()
		start := make(chan struct{})
		progs := make([]*esd.Program, callers)
		var wg sync.WaitGroup
		for i := range progs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				p, err := eng.Compile("ls4.c", src)
				if err != nil {
					t.Error(err)
				}
				progs[i] = p
			}()
		}
		close(start)
		wg.Wait()
		st := eng.Stats()
		if st.ProgramsCompiled != 1 || st.CompileCacheHits != callers-1 {
			t.Errorf("round %d: %d compiled and %d hits, want 1 and %d", round, st.ProgramsCompiled, st.CompileCacheHits, callers-1)
		}
		for i, p := range progs {
			if p != progs[0] {
				t.Errorf("round %d: caller %d got another program than caller 0", round, i)
			}
		}
	}
}

// TestEngineCompileMemoBounded: the compile memo, which holds the
// programs and with them their tables and idle solvers, keeps at most 256
// programs however many distinct sources arrive, and resolves the IDs of
// the programs it holds.
func TestEngineCompileMemoBounded(t *testing.T) {
	eng := esd.New()
	const sources = 300
	var last *esd.Program
	for i := range sources {
		p, err := eng.Compile(fmt.Sprintf("p%d.c", i), fmt.Sprintf("int main() { return %d; }", i))
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	st := eng.Stats()
	if st.ProgramsCompiled != sources || st.ProgramsCached > 256 {
		t.Errorf("%d distinct sources: %d compiled, %d cached, want %d and at most 256",
			sources, st.ProgramsCompiled, st.ProgramsCached, sources)
	}
	if got := eng.Program(last.ID()); got != last {
		t.Errorf("Program(%q) = %p, want the program just compiled (%p)", last.ID(), got, last)
	}
	if got := eng.Program("nosuch-0000000000000000"); got != nil {
		t.Errorf("an unknown ID resolved to %p", got)
	}
}
