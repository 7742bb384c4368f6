package symex

import (
	"fmt"
	"reflect"
	"testing"

	"esd/internal/expr"
	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/solver"
)

// referenceFork is State.Fork as it was before forks shared threads,
// histories and sync maps: it copies all of them, and shares only memory
// objects (copy-on-write). TestForkMatchesCopyingFork holds the sharing
// fork to it.
func referenceFork(st *State) *State {
	n := &State{
		ID:           -1,
		Prog:         st.Prog,
		Mem:          st.Mem.Fork(),
		Threads:      make([]*Thread, len(st.Threads)),
		Cur:          st.Cur,
		Constraints:  append([]*expr.Expr(nil), st.Constraints...),
		Box:          st.Box.Clone(),
		Inputs:       append([]InputRecord(nil), st.Inputs...),
		Mutexes:      make(map[MutexKey]*MutexState, len(st.Mutexes)),
		CondWaiters:  make(map[MutexKey][]int, len(st.CondWaiters)),
		Status:       st.Status,
		Crash:        st.Crash,
		Deadlock:     st.Deadlock,
		ExitCode:     st.ExitCode,
		Schedule:     append([]SchedSegment(nil), st.Schedule...),
		SyncEvents:   append([]SyncEvent(nil), st.SyncEvents...),
		Steps:        st.Steps,
		Snapshots:    make(map[MutexKey]*State, len(st.Snapshots)),
		SchedDist:    st.SchedDist,
		syncApproved: st.syncApproved,
		Preemptions:  st.Preemptions,
		EagerForks:   st.EagerForks,
		globalIDs:    st.globalIDs,
		envBufs:      make(map[string]int, len(st.envBufs)),
	}
	for i, t := range st.Threads {
		n.Threads[i] = t.clone(nil)
	}
	for k, v := range st.Mutexes {
		m := *v
		n.Mutexes[k] = &m
	}
	for k, v := range st.CondWaiters {
		n.CondWaiters[k] = append([]int(nil), v...)
	}
	for k, v := range st.Snapshots {
		n.Snapshots[k] = v
	}
	for k, v := range st.envBufs {
		n.envBufs[k] = v
	}
	return n
}

// unowned returns a copy of st to compare with its reference twin,
// without the fields that record ownership. Its threads are copied as a
// fork copies one, which also drops a thread's spare register chunk and
// turns its empty lists nil: the reference fork's copies differ from the
// threads they copy only there, and neither holds content.
func unowned(st *State) State {
	v := *st
	v.syncOwner = nil
	mem := *st.Mem
	mem.self = nil
	v.Mem = &mem
	v.Threads = make([]*Thread, len(st.Threads))
	for i, t := range st.Threads {
		v.Threads[i] = t.clone(nil)
	}
	return v
}

// twinSrc has main hold m while two workers block on it, then split on
// input a. Each side then unlocks m, waking both workers, at its own
// location, and reads an input of its own. Three inputs come before the
// split, so the histories the sides share have spare capacity.
const twinSrc = `
int m;
int x;
int worker(int k) {
	lock(&m);
	x = x + k;
	unlock(&m);
	return 0;
}
int main() {
	int a = input("a");
	int d = input("d");
	int e = input("e");
	lock(&m);
	int t1 = thread_create(worker, 1);
	int t2 = thread_create(worker, 2);
	int b = 0;
	if (a > 5) {
		unlock(&m);
		b = input("b");
	} else {
		x = 2;
		unlock(&m);
		b = input("c");
	}
	thread_join(t1);
	thread_join(t2);
	return x + b + d + e;
}`

// condSrc has two waiters park on a condition variable until main sets
// go and broadcasts.
const condSrc = `
int m;
int c;
int go;
int waiter(int k) {
	lock(&m);
	while (go == 0) {
		cond_wait(&c, &m);
	}
	unlock(&m);
	return k;
}
int main() {
	int t1 = thread_create(waiter, 1);
	int t2 = thread_create(waiter, 2);
	lock(&m);
	go = 1;
	cond_broadcast(&c);
	unlock(&m);
	thread_join(t1);
	thread_join(t2);
	return 0;
}`

// stepOne returns a step function for st on e that fails the test
// unless the step has exactly one successor.
func stepOne(t *testing.T, e *Engine, st *State) func() {
	return func() {
		t.Helper()
		succ, err := e.Step(st)
		if err != nil || len(succ) != 1 {
			t.Fatalf("step: %d successors, err %v (%s)", len(succ), err, st.Summary())
		}
	}
}

// blockedWorkers runs twinSrc on e up to the split: main holds m and is
// scheduled, and both workers are blocked on m.
func blockedWorkers(t *testing.T, e *Engine) *State {
	t.Helper()
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	step := stepOne(t, e, st)
	for len(st.Threads) < 3 {
		step()
	}
	st.SwitchTo(1)
	for st.Cur != 0 { // each worker blocks in turn, then main runs again
		step()
	}
	for i, th := range st.Threads[1:] {
		if th.Status != ThreadBlockedMutex {
			t.Fatalf("worker %d is %v, want blocked on m", i+1, th.Status)
		}
	}
	return st
}

// waiterAtWait runs condSrc on e until the first waiter, holding m, is
// about to wait on c while the second is blocked on m.
func waiterAtWait(t *testing.T, e *Engine) *State {
	t.Helper()
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	step := stepOne(t, e, st)
	for len(st.Threads) < 3 {
		step()
	}
	st.SwitchTo(1)
	for st.CurrentInstr().Op != mir.CondWait {
		step()
	}
	st.SwitchTo(2)
	for st.Cur == 2 {
		step()
	}
	st.SwitchTo(1)
	if st.Threads[2].Status != ThreadBlockedMutex {
		t.Fatalf("the second waiter is %v, want blocked on m", st.Threads[2].Status)
	}
	return st
}

// TestForkMatchesCopyingFork forks a three-thread state and steps both
// sides to the end. A twin of each state is forked by referenceFork and
// driven the same way, and after every step each state must equal its
// twin but for ownership: writing a shared thread, history or sync map in
// place shows up as a difference in a state that shares it. Each case
// forks the parent a second time, so that threads it owned are shared
// again when it wakes them or switches to them.
//   - mutex: main holds a mutex two blocked workers wait for. The parent
//     goes down one branch: through the unlock that wakes them, an input,
//     a join's switch, the second fork, the workers' sync events, a join's
//     wakeup and another switch. The child goes down the other.
//   - condvar: a waiter holding a mutex another waiter is blocked on waits
//     on a condition variable, which wakes the blocked one, and both wait.
//     The second fork comes just before main broadcasts, so the broadcast
//     is the parent's first write to the shared waiters and sync maps.
func TestForkMatchesCopyingFork(t *testing.T) {
	split := expr.Truth(expr.Binary(expr.OpGt, expr.Var("in:a:0"), expr.Const(5)))
	for _, c := range []struct {
		name, src string
		setup     func(*testing.T, *Engine) *State
		// split, when set, is the branch condition the parent takes and
		// the child negates.
		split *expr.Expr
		// forkAgain reports when to fork the parent the second time.
		forkAgain func(parent *State) bool
	}{
		{"mutex", twinSrc, blockedWorkers, split, func(p *State) bool { return p.Cur == 1 }},
		{"condvar", condSrc, waiterAtWait, nil, func(p *State) bool {
			in := p.CurrentInstr()
			return in != nil && in.Op == mir.CondBroadcast
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := lang.MustCompile(c.name+".c", c.src)
			e, e2 := New(prog, solver.New()), New(prog, solver.New())
			parent, parent2 := c.setup(t, e), c.setup(t, e2)
			child := e.ForkState(parent)
			child2 := referenceFork(parent2)
			child2.ID = child.ID
			if c.split != nil {
				parent.addConstraint(c.split)
				parent2.addConstraint(c.split)
				child.addConstraint(expr.Not(c.split))
				child2.addConstraint(expr.Not(c.split))
			}
			pairs := driveTwins(t, [2]*Engine{e, e2}, [][2]*State{{parent, parent2}, {child, child2}}, c.forkAgain)
			for _, p := range pairs {
				if p[0].Status != StateExited {
					t.Fatalf("state %d did not exit: %s", p[0].ID, p[0].Summary())
				}
			}
			if c.split != nil && (parent.Inputs[3].Var != "in:b:0" || child.Inputs[3].Var != "in:c:0") {
				t.Fatalf("the sides read %s and %s, want in:b:0 and in:c:0", parent.Inputs[3].Var, child.Inputs[3].Var)
			}
		})
	}
}

// driveTwins steps each state of pairs on engs[0] and its twin on engs[1]
// until all have stopped, and requires every state to equal its twin
// after each step. The first row is the parent: the first time forkAgain
// holds for it, it is forked again (its twin by referenceFork) and the
// new pair joins the rows. It returns the rows.
func driveTwins(t *testing.T, engs [2]*Engine, pairs [][2]*State, forkAgain func(*State) bool) [][2]*State {
	t.Helper()
	check := func(when string) {
		t.Helper()
		for _, p := range pairs {
			if a, b := unowned(p[0]), unowned(p[1]); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: state %d differs from its twin:\n%s\n%s", when, p[0].ID, p[0].Summary(), p[1].Summary())
			}
		}
	}
	check("after the fork")
	forkedAgain := false
	for round := 0; round < 200; round++ {
		running := false
		for _, p := range pairs {
			if p[0].Status != StateRunning {
				continue
			}
			running = true
			for i, eng := range engs {
				if succ, err := eng.Step(p[i]); err != nil || len(succ) != 1 {
					t.Fatalf("round %d: step: %d successors, err %v (%s)", round, len(succ), err, p[i].Summary())
				}
			}
			// A state that shares with p[0] and steps after it in this
			// round would mask a leak by writing the same value.
			check(fmt.Sprintf("round %d, state %d", round, p[0].ID))
		}
		if !running {
			break
		}
		if parent := pairs[0]; !forkedAgain && forkAgain(parent[0]) {
			forkedAgain = true
			g := engs[0].ForkState(parent[0])
			g2 := referenceFork(parent[1])
			g2.ID = g.ID
			pairs = append(pairs, [2]*State{g, g2})
			check("after the second fork")
		}
	}
	if !forkedAgain {
		t.Fatal("the parent was never forked again")
	}
	return pairs
}

// TestForkSharesWhatNeitherSideWrites pins the sharing itself: a fork
// copies its scheduled thread and nothing else of what the VM writes in
// place. Every other thread is the same pointer in both states, the
// histories are views of one array clipped to the parent's length, and
// the sync maps are the same maps.
func TestForkSharesWhatNeitherSideWrites(t *testing.T) {
	e := New(lang.MustCompile("twin.c", twinSrc), solver.New())
	st := blockedWorkers(t, e)
	child := e.ForkState(st)
	for i := range st.Threads {
		if shared := child.Threads[i] == st.Threads[i]; shared != (i != st.Cur) {
			t.Errorf("thread %d shared = %v with thread %d scheduled", i, shared, st.Cur)
		}
	}
	if !child.Mem.self.holds(child.Threads[child.Cur].owner) || !st.Mem.self.holds(st.Threads[st.Cur].owner) {
		t.Error("a side does not own its scheduled thread")
	}
	sameArray := func(name string, a, b any, n, c int) {
		if a != b || c != n {
			t.Errorf("%s: child is not the parent's array clipped to %d (cap %d)", name, n, c)
		}
	}
	sameArray("Constraints", &st.Constraints[0], &child.Constraints[0], len(st.Constraints), cap(child.Constraints))
	sameArray("Inputs", &st.Inputs[0], &child.Inputs[0], len(st.Inputs), cap(child.Inputs))
	sameArray("SyncEvents", &st.SyncEvents[0], &child.SyncEvents[0], len(st.SyncEvents), cap(child.SyncEvents))
	for name, m := range map[string][2]any{
		"Mutexes":     {st.Mutexes, child.Mutexes},
		"CondWaiters": {st.CondWaiters, child.CondWaiters},
		"Snapshots":   {st.Snapshots, child.Snapshots},
		"envBufs":     {st.envBufs, child.envBufs},
	} {
		if reflect.ValueOf(m[0]).Pointer() != reflect.ValueOf(m[1]).Pointer() {
			t.Errorf("%s is copied", name)
		}
	}
}

// TestAddSnapshotRequiresFrozen: forks of a K_S snapshot run on several
// goroutines at once, and only a frozen state's fork is a pure read, so
// storing a snapshot that still holds a token panics.
func TestAddSnapshotRequiresFrozen(t *testing.T) {
	e := New(lang.MustCompile("twin.c", twinSrc), solver.New())
	st := blockedWorkers(t, e)
	snap := e.ForkState(st)
	key := MutexKey{Obj: 1}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddSnapshot stored a snapshot that holds a token")
			}
		}()
		st.AddSnapshot(key, snap)
	}()
	snap.Freeze()
	st.AddSnapshot(key, snap)
	if st.TakeSnapshot(key) != snap {
		t.Error("AddSnapshot did not store the frozen snapshot")
	}
}

// TestFrozenStateOwnsNothing: a frozen state owns nothing, so switching
// its thread copies nothing into it, and its fork owns the thread it
// steps.
func TestFrozenStateOwnsNothing(t *testing.T) {
	e := New(lang.MustCompile("twin.c", twinSrc), solver.New())
	st := blockedWorkers(t, e)
	snap := e.ForkState(st)
	snap.Freeze()
	snap.SwitchTo(1)
	for i, th := range snap.Threads {
		if snap.Mem.self.holds(th.owner) {
			t.Errorf("frozen state owns thread %d", i)
		}
	}
	if snap.Threads[1] != st.Threads[1] {
		t.Error("switching a frozen state copied the thread")
	}
	held := snap.Mem.self.holds(snap.syncOwner)
	for _, o := range snap.Mem.objects {
		held = held || snap.Mem.self.holds(o.owner)
	}
	if held {
		t.Error("frozen state owns its sync maps or an object")
	}
	child := e.ForkState(snap)
	if !child.Mem.self.holds(child.Threads[child.Cur].owner) {
		t.Error("a frozen state's fork does not own its scheduled thread")
	}
}
