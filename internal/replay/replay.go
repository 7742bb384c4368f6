// Package replay is ESD's playback environment (§5.2): it steers the
// program into following a synthesized execution file, deterministically,
// as many times as the developer wants, with a small interactive debugger
// on top (breakpoints, stepping, stack and memory inspection — the gdb
// workflow of §5).
//
// Two modes mirror the paper's two schedule representations: Strict
// enforces the exact serial instruction schedule; HappensBefore only
// enforces the recorded order of synchronization operations, leaving other
// interleaving decisions to the scheduler.
package replay

import (
	"fmt"
	"strings"

	"esd/internal/mir"
	"esd/internal/solver"
	"esd/internal/symex"
	"esd/internal/trace"
)

// Mode selects the schedule-enforcement representation (§5.1).
type Mode int

// Playback modes.
const (
	Strict Mode = iota
	HappensBefore
)

// String names the mode.
func (m Mode) String() string {
	if m == HappensBefore {
		return "happens-before"
	}
	return "strict"
}

// Breakpoint identifies a source line.
type Breakpoint struct {
	File string
	Line int
}

// Player replays one execution file over a program.
type Player struct {
	Prog *mir.Program
	Exec *trace.Execution
	Mode Mode

	// OnPrint receives values the program prints.
	OnPrint func(v symex.Value)

	eng *symex.Engine
	st  *symex.State

	segIdx    int
	doneInSeg int64
	evIdx     int

	breakpoints map[Breakpoint]bool
	// lastStop suppresses immediate re-triggering while execution remains
	// on the breakpoint's source line (one stop per line crossing, as in
	// gdb).
	lastStop *Breakpoint
}

// NewPlayer prepares playback of ex over prog.
func NewPlayer(prog *mir.Program, ex *trace.Execution, mode Mode) (*Player, error) {
	p := &Player{Prog: prog, Exec: ex, Mode: mode, breakpoints: map[Breakpoint]bool{}}
	p.eng = symex.New(prog, solver.New())
	p.eng.Inputs = ex
	p.eng.OnPrint = func(st *symex.State, v symex.Value) {
		if p.OnPrint != nil {
			p.OnPrint(v)
		}
	}
	st, err := p.eng.InitialState()
	if err != nil {
		return nil, err
	}
	p.st = st
	return p, nil
}

// State exposes the current execution state (for inspection).
func (p *Player) State() *symex.State { return p.st }

// Done reports whether playback finished.
func (p *Player) Done() bool { return p.st.Status != symex.StateRunning }

// AddBreakpoint sets a source-line breakpoint.
func (p *Player) AddBreakpoint(file string, line int) {
	p.breakpoints[Breakpoint{file, line}] = true
}

// StepInstr executes exactly one instruction under the recorded schedule.
func (p *Player) StepInstr() error {
	if p.Done() {
		return nil
	}
	switch p.Mode {
	case Strict:
		return p.stepStrict()
	default:
		return p.stepHB()
	}
}

// stepStrict enforces the exact recorded serial schedule.
func (p *Player) stepStrict() error {
	sched := p.Exec.Schedule
	for p.segIdx < len(sched) && p.doneInSeg >= sched[p.segIdx].Steps {
		p.segIdx++
		p.doneInSeg = 0
	}
	if p.segIdx >= len(sched) {
		// Past the recorded schedule (the failure should already have
		// manifested); fall back to free round-robin execution.
		return p.engineStep()
	}
	seg := sched[p.segIdx]
	t := p.st.Thread(seg.Tid)
	if t == nil || t.Status != symex.ThreadRunnable {
		return fmt.Errorf("replay: diverged: schedule expects thread %d to run (%v)", seg.Tid, threadStatus(t))
	}
	if p.st.Cur != seg.Tid {
		p.st.SwitchTo(seg.Tid)
	}
	before := p.st.Steps
	if err := p.engineStep(); err != nil {
		return err
	}
	p.doneInSeg += p.st.Steps - before
	return nil
}

func threadStatus(t *symex.Thread) string {
	if t == nil {
		return "missing"
	}
	return t.Status.String()
}

// stepHB enforces only the recorded synchronization order.
func (p *Player) stepHB() error {
	// If the current thread's next instruction is a sync operation that is
	// not the next recorded event, run the event's thread instead. Only
	// operations that record events are order-enforced: yields (and
	// blocked attempts) leave no trace and need none.
	if p.evIdx < len(p.Exec.SyncEvents) {
		in := p.st.CurrentInstr()
		if in != nil && in.Op.IsSync() && in.Op != mir.Yield {
			ev := p.Exec.SyncEvents[p.evIdx]
			if p.st.Cur != ev.Tid {
				t := p.st.Thread(ev.Tid)
				if t == nil || t.Status != symex.ThreadRunnable {
					return fmt.Errorf("replay: diverged: happens-before expects thread %d (%v)", ev.Tid, threadStatus(t))
				}
				p.st.SwitchTo(ev.Tid)
			}
		}
	}
	nEvents := len(p.st.SyncEvents)
	if err := p.engineStep(); err != nil {
		return err
	}
	if len(p.st.SyncEvents) > nEvents && p.evIdx < len(p.Exec.SyncEvents) {
		got := p.st.SyncEvents[len(p.st.SyncEvents)-1]
		want := p.Exec.SyncEvents[p.evIdx]
		if got.Tid != want.Tid || got.Op != want.Op || got.Key != want.Key {
			return fmt.Errorf("replay: diverged: sync event %d is T%d:%v, recorded T%d:%v",
				p.evIdx, got.Tid, got.Op, want.Tid, want.Op)
		}
		p.evIdx++
	}
	return nil
}

func (p *Player) engineStep() error {
	succ, err := p.eng.Step(p.st)
	if err != nil {
		return err
	}
	if len(succ) != 1 {
		return fmt.Errorf("replay: execution forked at %s — inputs incomplete", p.st.Loc())
	}
	p.st = succ[0]
	return nil
}

// Continue runs until a breakpoint, termination, or maxSteps instructions.
// It reports whether it stopped at a breakpoint.
func (p *Player) Continue(maxSteps int64) (bool, error) {
	start := p.st.Steps
	for !p.Done() && p.st.Steps-start < maxSteps {
		if err := p.StepInstr(); err != nil {
			return false, err
		}
		if p.atBreakpoint() {
			return true, nil
		}
	}
	return false, nil
}

// Run plays the execution to completion and returns the final state.
func (p *Player) Run(maxSteps int64) (*symex.State, error) {
	for !p.Done() {
		if p.st.Steps >= maxSteps {
			return p.st, fmt.Errorf("replay: exceeded %d steps", maxSteps)
		}
		if err := p.StepInstr(); err != nil {
			return p.st, err
		}
	}
	return p.st, nil
}

func (p *Player) atBreakpoint() bool {
	in := p.st.CurrentInstr()
	if in == nil {
		return false
	}
	here := Breakpoint{in.Pos.File, in.Pos.Line}
	if p.lastStop != nil {
		if *p.lastStop == here {
			return false // still on the line of the last stop
		}
		p.lastStop = nil
	}
	if len(p.breakpoints) == 0 || !p.breakpoints[here] {
		return false
	}
	p.lastStop = &here
	return true
}

// --- Debugger-style inspection --------------------------------------------

// Backtrace renders the current thread's call stack, innermost first.
func (p *Player) Backtrace() []string {
	t := p.st.CurThread()
	var out []string
	for i := len(t.Frames) - 1; i >= 0; i-- {
		f := t.Frames[i]
		in := f.Fn.Blocks[f.Block].Instrs[min(f.Idx, len(f.Fn.Blocks[f.Block].Instrs)-1)]
		out = append(out, fmt.Sprintf("#%d %s at %s", len(t.Frames)-1-i, f.Fn.Name, in.Pos))
	}
	return out
}

// Where describes the current position (thread, function, source line).
func (p *Player) Where() string {
	in := p.st.CurrentInstr()
	if in == nil {
		return fmt.Sprintf("thread %d (no frame)", p.st.Cur)
	}
	return fmt.Sprintf("thread %d in %s at %s", p.st.Cur, p.st.Loc().Fn, in.Pos)
}

// ReadGlobal returns the cells of a global variable.
func (p *Player) ReadGlobal(name string) ([]int64, error) {
	id := p.st.GlobalObj(name)
	if id < 0 {
		return nil, fmt.Errorf("replay: no global %q", name)
	}
	obj := p.st.Mem.Object(id)
	out := make([]int64, obj.Size)
	for i := 0; i < obj.Size; i++ {
		v, ok := p.st.Mem.Read(id, int64(i))
		if !ok {
			return nil, fmt.Errorf("replay: cannot read %s[%d]", name, i)
		}
		if c, isC := v.E.IsConst(); isC {
			out[i] = c
		}
	}
	return out, nil
}

// ThreadsSummary lists all threads with status and location.
func (p *Player) ThreadsSummary() []string {
	var out []string
	for _, t := range p.st.Threads {
		loc := "-"
		if f := t.Top(); f != nil {
			loc = f.Loc().String()
		}
		out = append(out, fmt.Sprintf("T%d %s at %s", t.ID, t.Status, loc))
	}
	return out
}

// Describe summarizes the final outcome after playback.
func (p *Player) Describe() string {
	st := p.st
	var b strings.Builder
	fmt.Fprintf(&b, "playback (%s mode): %s", p.Mode, st.Status)
	switch {
	case st.Crash != nil:
		fmt.Fprintf(&b, " — %s", st.Crash)
	case st.Deadlock != nil:
		fmt.Fprintf(&b, " — %s", st.Deadlock)
	}
	return b.String()
}
