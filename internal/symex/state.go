package symex

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"esd/internal/expr"
	"esd/internal/mir"
	"esd/internal/solver"
)

// ThreadStatus is a thread's scheduling state.
type ThreadStatus int

// Thread statuses.
const (
	ThreadRunnable ThreadStatus = iota
	ThreadBlockedMutex
	ThreadBlockedJoin
	ThreadBlockedCond
	ThreadExited
)

// String names the status.
func (s ThreadStatus) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadBlockedMutex:
		return "blocked-mutex"
	case ThreadBlockedJoin:
		return "blocked-join"
	case ThreadBlockedCond:
		return "blocked-cond"
	case ThreadExited:
		return "exited"
	}
	return "?"
}

// Frame is one activation record.
type Frame struct {
	Fn    *mir.Func
	Block int
	Idx   int
	// Regs is the frame's register file: a slice of its thread's current
	// register chunk, whose capacity runs to the chunk's end (see
	// Thread.free).
	Regs   []Value
	RetDst int // caller register receiving the return value (-1 none)
	// allocaBase is where this frame's stack objects start in its
	// thread's allocas; they are released when the frame returns.
	allocaBase int
}

// Loc returns the frame's current instruction location.
func (f *Frame) Loc() mir.Loc { return mir.Loc{Fn: f.Fn.Name, Block: f.Block, Index: f.Idx} }

// Thread is one simulated POSIX thread. States share threads: a fork
// shares every thread but its scheduled one, and a state copies a thread
// that does not carry its token before it first writes it
// (State.ownThread).
type Thread struct {
	ID int
	// Frames is the call stack, outermost first, held by value: a call
	// appends to it and a return truncates it.
	Frames    []Frame
	Status    ThreadStatus
	WaitMutex MutexKey // when blocked on a mutex (incl. condvar reacquire)
	WaitCond  MutexKey // when blocked on a condvar
	WaitTid   int      // when blocked in join
	Result    Value    // thread function return value (for join)
	// CondPhase tracks condition-variable wait progress: 0 = not waiting,
	// 1 = waiting for a signal, 2 = signaled, reacquiring the mutex.
	CondPhase int
	// allocas is the thread's stack of stack-object IDs, outermost frame's
	// first: each frame owns the tail from its allocaBase on. One stack
	// per thread, rather than a slice per frame, lets a call and its
	// allocas allocate nothing for the bookkeeping.
	allocas []int
	// free is the unused, zeroed tail of the thread's register chunk. A
	// call takes its registers from its head and starts a new chunk only
	// when it is too short; a returning frame hands back its registers
	// and the rest of their chunk. A chunk thus outlives the frame that
	// started it, so calls and returns across its start do not allocate,
	// and a new chunk never copies the frames below it.
	free []Value
	// owner is the token of the one state that may write the thread in
	// place (see cowOwner).
	owner *cowOwner
}

// regChunk is the smallest register chunk a call starts (Values). Small
// chunks waste least in the many states that fork and then make one or
// two shallow calls; deep call chains start a chunk every few frames.
const regChunk = 8

// clone copies the thread, tagged with owner: its frames into one slice
// and all their registers into one chunk, both exactly sized (the copy's
// first call grows the one and starts a chunk of its own).
func (t *Thread) clone(owner *cowOwner) *Thread {
	n := *t
	n.owner = owner
	n.Frames = append([]Frame(nil), t.Frames...)
	n.free = nil
	if len(t.Frames) > 0 {
		total := 0
		for i := range t.Frames {
			total += len(t.Frames[i].Regs)
		}
		n.free = make([]Value, total)
		for i := range n.Frames {
			n.Frames[i].Regs = n.newRegs(len(t.Frames[i].Regs))
			copy(n.Frames[i].Regs, t.Frames[i].Regs)
		}
	}
	n.allocas = append([]int(nil), t.allocas...)
	return &n
}

// newRegs takes n zeroed registers from the thread's register chunk,
// starting a new chunk when the current one is too short.
func (t *Thread) newRegs(n int) []Value {
	if n > len(t.free) {
		t.free = make([]Value, max(n, regChunk))
	}
	r := t.free[:n]
	t.free = t.free[n:]
	return r
}

// pushFrame enters f, whose registers came from newRegs and which starts
// with no stack objects.
func (t *Thread) pushFrame(f Frame) {
	f.allocaBase = len(t.allocas)
	t.Frames = append(t.Frames, f)
}

// popFrame leaves the innermost frame: its registers, cleared, go back to
// the thread's chunk with everything after them, and its stack objects'
// IDs leave the alloca stack (the caller frees the objects first).
func (t *Thread) popFrame() {
	f := &t.Frames[len(t.Frames)-1]
	clear(f.Regs)
	t.free = f.Regs[:cap(f.Regs)]
	t.allocas = t.allocas[:f.allocaBase]
	t.Frames = t.Frames[:len(t.Frames)-1]
}

// frameAllocas returns the stack objects of t.Frames[i].
func (t *Thread) frameAllocas(i int) []int {
	end := len(t.allocas)
	if i+1 < len(t.Frames) {
		end = t.Frames[i+1].allocaBase
	}
	return t.allocas[t.Frames[i].allocaBase:end]
}

// Top returns the innermost frame, or nil for an exited thread. The
// pointer is into Frames, so it is valid until the thread's next call.
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return &t.Frames[len(t.Frames)-1]
}

// Stack returns the thread's call stack, outermost first, as instruction
// locations (the shape bug-report stack traces take).
func (t *Thread) Stack() []mir.Loc {
	return t.AppendStack(make([]mir.Loc, 0, len(t.Frames)))
}

// AppendStack appends the thread's call stack, outermost first, to dst and
// returns the extended slice: Stack without the allocation, for callers
// that score many states through one buffer.
func (t *Thread) AppendStack(dst []mir.Loc) []mir.Loc {
	for i := range t.Frames {
		dst = append(dst, t.Frames[i].Loc())
	}
	return dst
}

// MutexKey identifies a mutex or condition variable by its memory cell.
type MutexKey struct {
	Obj int
	Off int64
}

// NoMutex is the zero MutexKey, meaning "none".
var NoMutex = MutexKey{Obj: -1}

// String renders the key.
func (k MutexKey) String() string { return fmt.Sprintf("mu(obj%d+%d)", k.Obj, k.Off) }

// syncApproval marks the sync instruction already offered to the policy.
type syncApproval struct {
	Tid int
	Loc mir.Loc
}

// MutexState tracks a mutex's holder. Waiters are derived from thread
// statuses.
type MutexState struct {
	Holder int // thread ID, -1 when free
	// AcqLoc is where the current holder acquired the mutex (the lock call
	// site), used by the §4.1 inner/outer-lock scheduling heuristic.
	AcqLoc mir.Loc
}

// StateStatus is an execution state's lifecycle phase.
type StateStatus int

// State statuses.
const (
	StateRunning StateStatus = iota
	StateExited              // main returned / all threads done
	StateCrashed             // memory-safety violation, assert, abort
	StateDeadlocked
	StateAborted // abandoned: solver unknown, resource limit, pruned
)

// String names the status.
func (s StateStatus) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateExited:
		return "exited"
	case StateCrashed:
		return "crashed"
	case StateDeadlocked:
		return "deadlocked"
	case StateAborted:
		return "aborted"
	}
	return "?"
}

// CrashKind classifies failures, mirroring §3.1's bug classes.
type CrashKind int

// Crash kinds.
const (
	CrashSegFault CrashKind = iota
	CrashOutOfBounds
	CrashInvalidFree
	CrashAssert
	CrashAbort
	CrashDivZero
)

// String names the crash kind.
func (k CrashKind) String() string {
	switch k {
	case CrashSegFault:
		return "segfault"
	case CrashOutOfBounds:
		return "out-of-bounds"
	case CrashInvalidFree:
		return "invalid-free"
	case CrashAssert:
		return "assert-failure"
	case CrashAbort:
		return "abort"
	case CrashDivZero:
		return "division-by-zero"
	}
	return "?"
}

// CrashInfo describes a failure: the faulting location (goal block B) and
// the machine condition that held (goal condition C).
type CrashInfo struct {
	Kind    CrashKind
	Tid     int
	Loc     mir.Loc
	Pos     mir.Pos
	Message string
}

// String renders the crash.
func (c *CrashInfo) String() string {
	return fmt.Sprintf("%s in thread %d at %s (%s): %s", c.Kind, c.Tid, c.Loc, c.Pos, c.Message)
}

// DeadlockInfo describes a detected deadlock.
type DeadlockInfo struct {
	// Tids are the threads involved (cycle members for mutex deadlocks, all
	// blocked threads for no-progress deadlocks).
	Tids []int
	// Cycle reports whether a resource-allocation-graph cycle was found
	// (vs. the weaker "no thread can make progress" condition, §4.1).
	Cycle bool
	// WaitLocs maps each involved thread to the location of the blocking
	// operation (the "inner lock" site).
	WaitLocs map[int]mir.Loc
}

// String renders the deadlock.
func (d *DeadlockInfo) String() string {
	var b strings.Builder
	if d.Cycle {
		b.WriteString("mutex cycle deadlock:")
	} else {
		b.WriteString("no-progress deadlock:")
	}
	tids := append([]int(nil), d.Tids...)
	sort.Ints(tids)
	for _, t := range tids {
		fmt.Fprintf(&b, " T%d@%s", t, d.WaitLocs[t])
	}
	return b.String()
}

// InputKind classifies recorded symbolic inputs.
type InputKind int

// Input kinds.
const (
	InputGetchar InputKind = iota
	InputEnv
	InputNamed
)

// InputRecord links a symbolic variable to the program input it models, so
// that trace files can drive playback. For concrete runs (an InputProvider
// is installed) the consumed value is recorded directly.
type InputRecord struct {
	Var  string
	Kind InputKind
	Name string // env/input name
	Seq  int    // getchar sequence number / env cell index
	// Concrete marks that Val holds the actual consumed value (concrete
	// runs); symbolic runs get values from the constraint solver instead.
	Concrete bool
	Val      int64
}

// SchedSegment is a maximal run of instructions by one thread (the strict
// schedule representation of §5.1).
type SchedSegment struct {
	Tid   int
	Steps int64
}

// SyncEvent records one synchronization operation for the happens-before
// schedule representation.
type SyncEvent struct {
	Tid int
	Op  mir.Opcode
	Key MutexKey
	Loc mir.Loc
}

// State is one symbolic execution state: program counter(s), stacks,
// address space, and path constraints (§3.3), extended with threads and
// scheduling metadata (§4).
//
// A fork shares with its parent everything that neither side writes, and
// a side copies a part only when it first writes it: KLEE's object-level
// copy-on-write (§6), applied to the whole state. A state holds one token
// (cowOwner, its address space's self), and it writes in place only the
// parts that carry it:
//   - memory objects, one by one (AddrSpace);
//   - threads, one by one (Thread.owner). A state that holds a token
//     always holds its scheduled thread;
//   - Mutexes (with the MutexStates it points to), CondWaiters, Snapshots
//     and envBufs, as one unit (syncOwner).
//
// Constraints, Inputs and SyncEvents only grow by appending, and no
// element is ever rewritten. A fork takes them clipped to their length,
// so its first append copies them, and the parent appends into spare
// capacity that no clipped view reaches. Schedule is copied, as
// countStep bumps its open segment in place. Outside this package the
// shared parts are read-only; the scheduling policies write Snapshots
// through AddSnapshot and TakeSnapshot.
type State struct {
	ID   int
	Prog *mir.Program

	Mem     *AddrSpace
	Threads []*Thread
	Cur     int // currently scheduled thread

	Constraints []*expr.Expr
	// Box is an interval over-approximation of Constraints, used to decide
	// obviously-implied branch conditions without a solver query.
	Box    *solver.Box
	Inputs []InputRecord

	Mutexes map[MutexKey]*MutexState
	// CondWaiters lists threads waiting on each condition variable in FIFO
	// order.
	CondWaiters map[MutexKey][]int

	Status   StateStatus
	Crash    *CrashInfo
	Deadlock *DeadlockInfo
	ExitCode Value

	// Schedule recording for the synthesized execution file.
	Schedule   []SchedSegment
	SyncEvents []SyncEvent

	Steps int64 // total instructions executed

	// Schedule-synthesis metadata (§4.1).
	Snapshots map[MutexKey]*State // K_S: mutex -> pre-acquisition snapshot
	// SchedDist is the scheduling policy's schedule-distance mark (§4.1):
	// its estimate of how many synchronization operations separate this
	// state from its goal lock sites (lower = closer). 0 marks states the
	// policy placed exactly on the deadlock schedule (activated K_S
	// snapshots, threads holding their inner lock). The graded search
	// ranks states by the static sync-distance metric (internal/dist)
	// recomputed from live stacks instead; the sticky mark is what the
	// binary near/far ablation consumes.
	SchedDist int64

	// syncApproved records which (thread, location) pending sync
	// instruction was already offered to the scheduling policy, so that
	// re-stepping executes it. It survives context switches: another
	// thread's pending sync op still gets its own offer.
	syncApproved *syncApproval

	// Preemptions counts policy-forced context switches along this state's
	// history (used by the Chess-style preemption-bounding baseline).
	Preemptions int

	// EagerForks counts §4.1 eager pre-acquisition forks along this
	// state's history. A deadlock of N parties needs about N deferred
	// acquisitions, so the scheduling policy bounds this tightly — without
	// the bound, two threads contending on one near-goal lock regenerate
	// each other's alternatives indefinitely.
	EagerForks int

	// globalIDs maps global names to object IDs (shared, immutable).
	globalIDs map[string]int
	// envBufs maps env var names to their backing objects.
	envBufs map[string]int

	// syncOwner is the token the sync maps (Mutexes, CondWaiters,
	// Snapshots and envBufs) carry.
	syncOwner *cowOwner
}

// Schedule-distance sentinels (§4.1). Real SchedDist values are estimated
// synchronization-operation counts; the sentinels bracket them.
const (
	// SchedDistUnknown marks a state no policy has scored.
	SchedDistUnknown int64 = -1
	// SchedDistFar demotes a state the policy knows is on the wrong side
	// of a rollback (the blocked state whose K_S snapshot was activated):
	// it dominates every real sync-distance estimate while staying far
	// from the Infinite used for statically unreachable states. Only the
	// binary near/far ablation orders by these marks.
	SchedDistFar int64 = 1 << 20
)

// Fork returns a copy of the state that shares with it everything that
// neither side writes (see State). Both sides take fresh tokens, so
// neither holds a shared part: the child holds a copy of the scheduled
// thread, and the parent's scheduled thread, which it shares with no
// state, is tagged with the parent's new token. Forking a frozen state
// writes nothing in it; forking any other state writes its token and its
// scheduled thread's tag. The caller assigns the new state's ID.
func (st *State) Fork() *State {
	cur := st.Threads[st.Cur]
	keep := st.Mem.self.holds(cur.owner)
	n := &State{
		ID:           -1,
		Prog:         st.Prog,
		Mem:          st.Mem.Fork(),
		Threads:      slices.Clone(st.Threads),
		Cur:          st.Cur,
		Constraints:  slices.Clip(st.Constraints),
		Box:          st.Box.Clone(),
		Inputs:       slices.Clip(st.Inputs),
		Mutexes:      st.Mutexes,
		CondWaiters:  st.CondWaiters,
		Status:       st.Status,
		Crash:        st.Crash,
		Deadlock:     st.Deadlock,
		ExitCode:     st.ExitCode,
		Schedule:     append([]SchedSegment(nil), st.Schedule...),
		SyncEvents:   slices.Clip(st.SyncEvents),
		Steps:        st.Steps,
		Snapshots:    st.Snapshots,
		SchedDist:    st.SchedDist,
		syncApproved: st.syncApproved,
		Preemptions:  st.Preemptions,
		EagerForks:   st.EagerForks,
		globalIDs:    st.globalIDs,
		envBufs:      st.envBufs,
	}
	n.Threads[n.Cur] = cur.clone(n.Mem.self)
	if keep {
		cur.owner = st.Mem.self
	}
	return n
}

// Freeze makes st a stored K_S snapshot (§4.1) by dropping its token. The
// search never steps one; it steps forks of it. A frozen state holds no
// part, so SwitchTo copies no thread into it and forking it is a pure
// read of it: frontier-parallel workers fork one snapshot at once.
func (st *State) Freeze() { st.Mem.self = nil }

// ownThread returns st.Threads[i] ready to be written in place: the thread
// itself when it carries st's token, else a copy that does.
func (st *State) ownThread(i int) *Thread {
	t := st.Threads[i]
	if !st.Mem.self.holds(t.owner) {
		t = t.clone(st.Mem.self)
		st.Threads[i] = t
	}
	return t
}

// ownSync readies the sync maps for st to write: the first write after a
// fork copies all four and tags them with st's token.
func (st *State) ownSync() {
	if st.Mem.self.holds(st.syncOwner) {
		return
	}
	st.syncOwner = st.Mem.self
	mutexes := make(map[MutexKey]*MutexState, len(st.Mutexes))
	for k, v := range st.Mutexes {
		m := *v
		mutexes[k] = &m
	}
	waiters := make(map[MutexKey][]int, len(st.CondWaiters))
	for k, v := range st.CondWaiters {
		waiters[k] = append([]int(nil), v...)
	}
	snapshots := make(map[MutexKey]*State, len(st.Snapshots))
	maps.Copy(snapshots, st.Snapshots)
	envBufs := make(map[string]int, len(st.envBufs))
	maps.Copy(envBufs, st.envBufs)
	st.Mutexes, st.CondWaiters, st.Snapshots, st.envBufs = mutexes, waiters, snapshots, envBufs
}

// mutex returns the state of mutex key ready to be written, adding it
// free when it is absent.
func (st *State) mutex(key MutexKey) *MutexState {
	st.ownSync()
	m := st.Mutexes[key]
	if m == nil {
		m = &MutexState{Holder: -1}
		st.Mutexes[key] = m
	}
	return m
}

// AddSnapshot stores snap, which must be frozen, as the K_S snapshot taken
// before mutex key was acquired (§4.1). Forks of snap run on several
// goroutines at once, and only a frozen state's fork is a pure read.
func (st *State) AddSnapshot(key MutexKey, snap *State) {
	if snap.Mem.self != nil {
		panic(fmt.Sprintf("symex: K_S snapshot state %d is not frozen", snap.ID))
	}
	st.ownSync()
	st.Snapshots[key] = snap
}

// TakeSnapshot removes and returns the K_S snapshot of mutex key, or nil
// when there is none; then it copies nothing.
func (st *State) TakeSnapshot(key MutexKey) *State {
	snap, ok := st.Snapshots[key]
	if !ok {
		return nil
	}
	st.ownSync()
	delete(st.Snapshots, key)
	return snap
}

// CurThread returns the scheduled thread.
func (st *State) CurThread() *Thread { return st.Threads[st.Cur] }

// Thread returns the thread with the given ID, or nil.
func (st *State) Thread(id int) *Thread {
	if i := st.threadIndex(id); i >= 0 {
		return st.Threads[i]
	}
	return nil
}

// threadIndex returns the index in Threads of the thread with the given
// ID, or -1.
func (st *State) threadIndex(id int) int {
	for i, t := range st.Threads {
		if t.ID == id {
			return i
		}
	}
	return -1
}

// Loc returns the current thread's instruction location.
func (st *State) Loc() mir.Loc {
	t := st.CurThread()
	f := t.Top()
	if f == nil {
		return mir.Loc{}
	}
	return f.Loc()
}

// CurrentInstr returns the instruction about to execute in the scheduled
// thread, or nil if the thread has exited.
func (st *State) CurrentInstr() *mir.Instr {
	f := st.CurThread().Top()
	if f == nil {
		return nil
	}
	blk := f.Fn.Blocks[f.Block]
	if f.Idx >= len(blk.Instrs) {
		return nil
	}
	return blk.Instrs[f.Idx]
}

// RunnableThreads returns the IDs of runnable threads.
func (st *State) RunnableThreads() []int {
	var out []int
	for _, t := range st.Threads {
		if t.Status == ThreadRunnable {
			out = append(out, t.ID)
		}
	}
	return out
}

// SwitchTo schedules thread tid, recording the context switch. Unless st
// is frozen, it copies the thread first if it shares it, so that a state
// always holds the thread it steps.
func (st *State) SwitchTo(tid int) {
	if st.Cur == tid {
		return
	}
	st.Cur = tid
	if st.Mem.self != nil {
		st.ownThread(tid)
	}
	st.Schedule = append(st.Schedule, SchedSegment{Tid: tid})
}

// countStep accounts one executed instruction to the current schedule
// segment.
func (st *State) countStep() {
	st.Steps++
	if len(st.Schedule) == 0 {
		st.Schedule = append(st.Schedule, SchedSegment{Tid: st.Cur})
	}
	st.Schedule[len(st.Schedule)-1].Steps++
}

// HeldMutexes returns the keys of mutexes held by thread tid, sorted for
// determinism.
func (st *State) HeldMutexes(tid int) []MutexKey {
	var out []MutexKey
	for k, m := range st.Mutexes {
		if m.Holder == tid {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj != out[j].Obj {
			return out[i].Obj < out[j].Obj
		}
		return out[i].Off < out[j].Off
	})
	return out
}

// GlobalObj returns the object ID backing the named global (-1 if absent).
func (st *State) GlobalObj(name string) int {
	if id, ok := st.globalIDs[name]; ok {
		return id
	}
	return -1
}

// Summary renders a one-line state description for logs.
func (st *State) Summary() string {
	return fmt.Sprintf("state %d: %s, %d threads, cur=T%d at %s, %d constraints, %d steps",
		st.ID, st.Status, len(st.Threads), st.Cur, st.Loc(), len(st.Constraints), st.Steps)
}
