package symex

import (
	"context"
	"errors"
	"fmt"

	"esd/internal/mir"
	"esd/internal/solver"
)

// ErrInterrupted is returned by Step and Run when the engine's context is
// cancelled. It is the prompt-cancellation channel for everything that
// executes inside the VM — symbolic search quanta, scheduling-policy
// forks, concrete playback — without per-instruction context overhead.
var ErrInterrupted = errors.New("symex: interrupted by context")

// ctxCheckPeriod is how many steps may execute between context checks.
// At the VM's per-step cost this bounds the cancellation latency to well
// under a millisecond even on solver-free stretches.
const ctxCheckPeriod = 1024

// Policy is the scheduling-policy hook the schedule synthesizer
// (internal/sched) plugs into the VM. A nil policy yields deterministic
// round-robin cooperative scheduling (used for playback and fixtures).
type Policy interface {
	// BeforeSync is called once per dynamic sync-class instruction (or
	// flagged racy access) before it executes. It may fork and return
	// sibling states exploring alternative scheduling decisions; the input
	// state proceeds to execute the instruction on its next step.
	BeforeSync(e *Engine, st *State, in *mir.Instr) []*State
	// AfterSync is called after a sync-class instruction executed; key is
	// the affected mutex/condvar (NoMutex when not applicable).
	AfterSync(e *Engine, st *State, in *mir.Instr, key MutexKey)
	// PickNext chooses the next thread when the current one cannot run.
	// Returning -1 delegates to round-robin.
	PickNext(e *Engine, st *State) int
}

// InputProvider supplies concrete program inputs. When an Engine has one,
// getchar/getenv/input return concrete values instead of fresh symbolic
// variables — this is how the user-site simulator and the playback
// environment (§5.2) drive the same VM concretely.
type InputProvider interface {
	// Getchar returns the seq-th stdin byte (-1 for EOF).
	Getchar(seq int) int64
	// Getenv returns the value cells of an environment variable (without
	// the terminating NUL).
	Getenv(name string) []int64
	// Input returns the value of the named generic input.
	Input(name string, seq int) int64
}

// RaceDetector is the hook internal/race plugs into the VM (§4.2).
type RaceDetector interface {
	// IsFlagged reports whether the instruction at loc was flagged as a
	// potential data race (making it a preemption point).
	IsFlagged(loc mir.Loc) bool
	// Record observes a memory access before it executes.
	Record(st *State, tid int, obj int, off int64, write bool, loc mir.Loc, held []MutexKey)
}

// Stats counts engine work for the evaluation harness. Everything here is
// deterministic under strict replay (step-count-driven, never wall-clock),
// which is what lets the flight recorder echo these numbers verbatim.
type Stats struct {
	Steps       int64
	Forks       int64
	BranchForks int64
	SchedForks  int64
	States      int64
	// Concretizations counts symbolic values pinned to concrete ones via a
	// solver model (the §5.2 playback mechanism applied mid-search).
	Concretizations int64
}

// Engine executes MIR programs symbolically.
type Engine struct {
	Prog   *mir.Program
	Solver *solver.Solver
	Policy Policy
	Race   RaceDetector
	// Inputs, when non-nil, makes execution fully concrete (no symbolic
	// variables are ever introduced).
	Inputs InputProvider
	// Ctx, when non-nil, interrupts execution: Step (and therefore Run and
	// every policy hook invoked from it) returns ErrInterrupted shortly
	// after the context is done. Checked every ctxCheckPeriod steps.
	Ctx context.Context

	// OnPrint, when set, receives values printed by the program.
	OnPrint func(st *State, v Value)

	Stats Stats

	nextStateID int
	nextObjID   int
	ctxTick     int
	// cells holds one-cell stack objects that returning frames freed from
	// address spaces owning them, for the next allocas to reuse (see
	// stackObject). No space maps them, and an engine serves one
	// goroutine at a time, so reusing them is safe.
	cells []*Object
	// one backs the successor slice of a step that did not fork (see
	// Step and single). It keeps the last such state reachable until the
	// next step; an engine serves one run, so that pins nothing past it.
	one [1]*State
}

// single returns st as a step's only successor, in the engine's own
// one-element array, so a step that does not fork — most steps — allocates
// no successor slice. The slice is valid until the next Step.
func (e *Engine) single(st *State) []*State {
	e.one[0] = st
	return e.one[:]
}

// tick polls the engine's context on a coarse step cadence, returning
// ErrInterrupted once it is done.
func (e *Engine) tick() error {
	e.ctxTick++
	if e.ctxTick < ctxCheckPeriod {
		return nil
	}
	e.ctxTick = 0
	if e.Ctx != nil {
		select {
		case <-e.Ctx.Done():
			return ErrInterrupted
		default:
		}
	}
	return nil
}

// New returns an engine for prog.
func New(prog *mir.Program, s *solver.Solver) *Engine {
	return &Engine{Prog: prog, Solver: s, nextObjID: 1}
}

// envLen is the modeled length (cells, incl. NUL) of getenv buffers.
const envLen = 8

// SetIDBase offsets the IDs this engine assigns to states and objects.
// State IDs are the deterministic tie-break of the search's priority
// ordering, and object IDs name memory cells *inside* execution states —
// both must stay unique when states migrate between engines, as they do
// in a frontier-parallel search (a stolen state's next stack frame is
// allocated by the stealing worker's engine, and a colliding object ID
// would silently overwrite a live object in that state's address space).
// Giving each worker's engine a disjoint base (worker w uses w<<40)
// keeps both namespaces collision-free. Call it before the first state
// is created.
func (e *Engine) SetIDBase(base int) {
	e.nextStateID = base
	e.nextObjID = base + 1
}

// NewObjID allocates a fresh object ID.
func (e *Engine) NewObjID() int {
	id := e.nextObjID
	e.nextObjID++
	return id
}

// maxCells bounds the engine's list of reusable stack objects.
const maxCells = 1024

// stackObject returns a fresh stack object of size cells with a new ID,
// reusing a freed one-cell object when one is at hand.
func (e *Engine) stackObject(size int) *Object {
	if n := len(e.cells); size == 1 && n > 0 {
		o := e.cells[n-1]
		e.cells[n-1] = nil
		e.cells = e.cells[:n-1]
		o.ID = e.NewObjID()
		return o
	}
	return newObject(e.NewObjID(), ObjStack, size, "")
}

// recycle keeps o, a stack object a returning frame freed from the one
// space that mapped it, for stackObject to reuse.
func (e *Engine) recycle(o *Object) {
	if len(o.Cells) == 1 && o.Size == 1 && o.Kind == ObjStack && o.Name == "" && len(e.cells) < maxCells {
		o.Cells[0] = Value{}
		e.cells = append(e.cells, o)
	}
}

// ForkState forks st, assigning the child a fresh ID.
func (e *Engine) ForkState(st *State) *State {
	n := st.Fork()
	n.ID = e.nextStateID
	e.nextStateID++
	e.Stats.Forks++
	e.Stats.States++
	return n
}

// InitialState builds the state at program entry: globals allocated and
// initialized, one thread at main.
func (e *Engine) InitialState() (*State, error) {
	main, ok := e.Prog.Funcs["main"]
	if !ok {
		return nil, fmt.Errorf("symex: program has no main")
	}
	st := &State{
		ID:          e.nextStateID,
		Prog:        e.Prog,
		Mem:         NewAddrSpace(),
		Box:         solver.NewBox(),
		Mutexes:     map[MutexKey]*MutexState{},
		CondWaiters: map[MutexKey][]int{},
		Snapshots:   map[MutexKey]*State{},
		SchedDist:   SchedDistUnknown,
		globalIDs:   map[string]int{},
		envBufs:     map[string]int{},
	}
	e.nextStateID++
	e.Stats.States++
	for _, g := range e.Prog.Globals {
		obj := newObject(e.NewObjID(), ObjGlobal, g.Size, g.Name)
		for i, v := range g.Init {
			obj.Cells[i] = IntVal(v)
		}
		st.Mem.Add(obj)
		st.globalIDs[g.Name] = obj.ID
	}
	t := &Thread{ID: 0}
	regs := t.newRegs(main.NumRegs)
	for i := range main.Params {
		regs[i] = IntVal(0)
	}
	t.pushFrame(Frame{Fn: main, Regs: regs, RetDst: -1})
	st.Threads = []*Thread{t}
	st.Schedule = []SchedSegment{{Tid: 0}}
	return st, nil
}

// Step advances st by (at most) one instruction of its scheduled thread.
// It returns the set of live successor states: typically {st}, or {st,
// fork} at a symbolic branch, or {} when the state terminated. Terminated
// and policy-forked states are also returned so the search can inspect
// them; callers check Status. The returned slice is valid until the
// engine's next Step: a step that does not fork returns the engine's own
// one-element array, so callers consume the slice before stepping again
// (and copy it if they must keep it).
func (e *Engine) Step(st *State) ([]*State, error) {
	if err := e.tick(); err != nil {
		return nil, err
	}
	if st.Status != StateRunning {
		return nil, fmt.Errorf("symex: step on %s state %d", st.Status, st.ID)
	}
	t := st.CurThread()
	if t.Status != ThreadRunnable {
		return e.reschedule(st)
	}
	in := st.CurrentInstr()
	if in == nil {
		return nil, fmt.Errorf("symex: thread %d of state %d has no instruction", t.ID, st.ID)
	}
	// Offer preemption points to the scheduling policy exactly once per
	// dynamic (thread, location) instance.
	loc := st.Loc()
	approved := st.syncApproved != nil && st.syncApproved.Tid == t.ID && st.syncApproved.Loc == loc
	if e.Policy != nil && !approved && e.isPreemptionPoint(st, in) {
		st.syncApproved = &syncApproval{Tid: t.ID, Loc: loc}
		extra := e.Policy.BeforeSync(e, st, in)
		e.Stats.SchedForks += int64(len(extra))
		if len(extra) > 0 {
			out := make([]*State, 0, 1+len(extra))
			out = append(out, st)
			out = append(out, extra...)
			return out, nil
		}
		if st.Cur != t.ID {
			// The policy preempted the current thread in place; the pending
			// instruction executes when the thread is next scheduled.
			return e.single(st), nil
		}
	}
	if approved {
		st.syncApproved = nil
	}
	return e.exec(st, in)
}

func (e *Engine) isPreemptionPoint(st *State, in *mir.Instr) bool {
	if in.Op.IsSync() {
		return true
	}
	if in.Op.IsMemAccess() && e.Race != nil {
		return e.Race.IsFlagged(st.Loc())
	}
	return false
}

// reschedule switches to another runnable thread or detects deadlock.
func (e *Engine) reschedule(st *State) ([]*State, error) {
	runnable := st.RunnableThreads()
	if len(runnable) == 0 {
		e.detectTerminal(st)
		return e.single(st), nil
	}
	next := -1
	if e.Policy != nil {
		next = e.Policy.PickNext(e, st)
	}
	if next < 0 || st.Thread(next) == nil || st.Thread(next).Status != ThreadRunnable {
		// Round-robin: first runnable after Cur.
		next = runnable[0]
		for _, tid := range runnable {
			if tid > st.Cur {
				next = tid
				break
			}
		}
	}
	st.SwitchTo(next)
	return e.single(st), nil
}

// detectTerminal classifies a state with no runnable threads: clean exit,
// mutex-cycle deadlock, or no-progress deadlock (§4.1).
func (e *Engine) detectTerminal(st *State) {
	anyBlocked := false
	for _, t := range st.Threads {
		if t.Status != ThreadExited {
			anyBlocked = true
			break
		}
	}
	if !anyBlocked {
		st.Status = StateExited
		return
	}
	st.Status = StateDeadlocked
	st.Deadlock = e.analyzeDeadlock(st)
}

// analyzeDeadlock builds the resource-allocation-graph diagnosis [22].
func (e *Engine) analyzeDeadlock(st *State) *DeadlockInfo {
	// waits[tid] = holder tid of the mutex tid waits for (-1 none).
	waits := map[int]int{}
	locs := map[int]mir.Loc{}
	var blocked []int
	for _, t := range st.Threads {
		if t.Status == ThreadExited {
			continue
		}
		blocked = append(blocked, t.ID)
		if f := t.Top(); f != nil {
			locs[t.ID] = f.Loc()
		}
		if t.Status == ThreadBlockedMutex {
			if m := st.Mutexes[t.WaitMutex]; m != nil && m.Holder >= 0 {
				waits[t.ID] = m.Holder
			}
		}
	}
	// Cycle detection over the wait-for edges.
	for _, start := range blocked {
		seen := map[int]int{} // tid -> position in walk
		cur := start
		pos := 0
		for {
			h, ok := waits[cur]
			if !ok {
				break
			}
			if p, visited := seen[cur]; visited {
				_ = p
				break
			}
			seen[cur] = pos
			pos++
			if h == start {
				// Found a cycle through start.
				cycle := []int{start}
				for n := waits[start]; n != start; n = waits[n] {
					cycle = append(cycle, n)
					if len(cycle) > len(st.Threads) {
						break
					}
				}
				wl := map[int]mir.Loc{}
				for _, tid := range cycle {
					wl[tid] = locs[tid]
				}
				return &DeadlockInfo{Tids: cycle, Cycle: true, WaitLocs: wl}
			}
			cur = h
		}
	}
	wl := map[int]mir.Loc{}
	for _, tid := range blocked {
		wl[tid] = locs[tid]
	}
	return &DeadlockInfo{Tids: blocked, Cycle: false, WaitLocs: wl}
}

// EvalOperand evaluates an operand in the current thread's top frame
// (exposed for scheduling policies).
func (e *Engine) EvalOperand(st *State, op mir.Operand) Value {
	return e.operand(st.CurThread().Top(), op)
}

// MutexKeyFor resolves the mutex/condvar a sync instruction operates on
// (exposed for scheduling policies).
func (e *Engine) MutexKeyFor(st *State, in *mir.Instr) (MutexKey, bool) {
	switch in.Op {
	case mir.MutexInit, mir.MutexLock, mir.MutexUnlock,
		mir.CondWait, mir.CondSignal, mir.CondBroadcast:
		return e.mutexKeyOf(st, e.EvalOperand(st, in.A))
	}
	return NoMutex, false
}

// Run drives st with round-robin scheduling until it terminates or
// maxSteps instructions execute; symbolic branches must not occur (used
// for concrete execution: fixtures and playback). It returns the final
// state (which is st, mutated).
func (e *Engine) Run(st *State, maxSteps int64) (*State, error) {
	for st.Status == StateRunning && st.Steps < maxSteps {
		succ, err := e.Step(st)
		if err != nil {
			return st, err
		}
		if len(succ) != 1 {
			return st, fmt.Errorf("symex: concrete run forked at %s (%d successors)", st.Loc(), len(succ))
		}
		st = succ[0]
	}
	if st.Status == StateRunning {
		return st, fmt.Errorf("symex: run exceeded %d steps", maxSteps)
	}
	return st, nil
}
