package symex

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"esd/internal/expr"
	"esd/internal/mir"
	"esd/internal/solver"
)

func TestAddrSpaceBasics(t *testing.T) {
	as := NewAddrSpace()
	obj := &Object{ID: 1, Size: 4, Cells: make([]Value, 4)}
	as.Add(obj)
	if !as.Write(1, 2, IntVal(9)) {
		t.Fatal("in-bounds write failed")
	}
	v, ok := as.Read(1, 2)
	if !ok || !v.IsZero() == true && v.E == nil {
		t.Fatal("read failed")
	}
	if c, _ := v.E.IsConst(); c != 9 {
		t.Fatalf("read %v, want 9", v)
	}
	if _, ok := as.Read(1, 4); ok {
		t.Fatal("out-of-bounds read succeeded")
	}
	if as.Write(1, -1, IntVal(0)) {
		t.Fatal("negative-offset write succeeded")
	}
	if _, ok := as.Read(2, 0); ok {
		t.Fatal("unknown object read succeeded")
	}
	// Uninitialized cells read as concrete zero.
	z, ok := as.Read(1, 0)
	if !ok || !z.IsZero() {
		t.Fatalf("uninitialized cell = %v", z)
	}
}

func TestFreedObjectInaccessible(t *testing.T) {
	as := NewAddrSpace()
	as.Add(&Object{ID: 7, Size: 2, Cells: make([]Value, 2)})
	if _, ok := as.free(7); !ok {
		t.Fatal("free failed")
	}
	if _, ok := as.free(7); ok {
		t.Fatal("double free succeeded")
	}
	if _, freed := as.wasFreed(7); !freed {
		t.Fatal("freed object missing from the freed log")
	}
	if _, ok := as.Read(7, 0); ok {
		t.Fatal("read of freed object succeeded")
	}
	if as.Write(7, 0, IntVal(1)) {
		t.Fatal("write to freed object succeeded")
	}
}

// TestFreeHandsBackOnlyHeldObjects: free hands an object back for reuse
// only when it carries the freeing space's token. A shared object is
// still mapped by another space, and a frozen space holds no object, not
// even an untagged one (as decoded objects are).
func TestFreeHandsBackOnlyHeldObjects(t *testing.T) {
	parent := NewAddrSpace()
	for id := 1; id <= 2; id++ {
		parent.Add(newObject(id, ObjStack, 1, ""))
	}
	child := parent.Fork()
	if o, ok := child.free(1); !ok || o != nil {
		t.Errorf("the child's free of a shared object returned %v, %v; want nil, true", o, ok)
	}
	if o, ok := parent.free(1); !ok || o != nil {
		t.Errorf("the parent's free of a shared object returned %v, %v; want nil, true", o, ok)
	}
	parent.Write(2, 0, IntVal(5)) // the parent's clone of object 2 is its own
	if o := parent.Object(2); o == child.Object(2) {
		t.Fatal("the parent's write did not clone object 2")
	} else if got, _ := parent.free(2); got != o {
		t.Error("free did not hand back the parent's clone")
	}
	o := newObject(3, ObjStack, 1, "")
	child.Add(o)
	if got, _ := child.free(3); got != o {
		t.Error("free did not hand back the object the child added")
	}
	frozen := NewAddrSpace()
	frozen.self = nil
	frozen.objects[4] = newObject(4, ObjStack, 1, "")
	if got, _ := frozen.free(4); got != nil {
		t.Error("a frozen space's free handed back an untagged object")
	}
}

// TestCallRetUnmapsStackObjects: a returning frame takes its stack
// objects out of the address space, so a thousand call → alloca → ret
// cycles leave the space holding as many objects as before.
func TestCallRetUnmapsStackObjects(t *testing.T) {
	e := New(callLoopProg(), solver.New())
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if succ, err := e.Step(st); err != nil || len(succ) != 1 || st.Status != StateRunning {
			t.Fatalf("step: %d successors, err %v, %s", len(succ), err, st.Summary())
		}
	}
	step() // entry jump
	before := len(st.Mem.objects)
	for i := 0; i < 1000; i++ {
		for j := 0; j < 5; j++ { // call, alloca, store, ret, jmp
			step()
		}
	}
	if got := len(st.Mem.objects); got != before {
		t.Fatalf("address space holds %d objects after 1,000 calls, want %d", got, before)
	}
	if n := len(st.CurThread().Frames); n != 1 {
		t.Fatalf("%d frames after the calls, want 1", n)
	}
}

// Property (testing/quick): after a fork, writes on either side are
// invisible to the other — object-level copy-on-write isolation.
func TestCOWIsolationQuick(t *testing.T) {
	f := func(objCount uint8, ops []uint16) bool {
		n := int(objCount%8) + 1
		parent := NewAddrSpace()
		for i := 1; i <= n; i++ {
			parent.Add(&Object{ID: i, Size: 4, Cells: make([]Value, 4)})
		}
		// Seed some pre-fork values.
		for i := 1; i <= n; i++ {
			parent.Write(i, int64(i%4), IntVal(int64(i*100)))
		}
		child := parent.Fork()
		// Interleave writes driven by ops: even → parent, odd → child.
		type key struct {
			obj int
			off int64
		}
		pw := map[key]int64{}
		cw := map[key]int64{}
		for idx, op := range ops {
			obj := int(op)%n + 1
			off := int64(op/8) % 4
			val := int64(op) + 1000
			if idx%2 == 0 {
				parent.Write(obj, off, IntVal(val))
				pw[key{obj, off}] = val
			} else {
				child.Write(obj, off, IntVal(val))
				cw[key{obj, off}] = val
			}
		}
		// Every parent-side write must be visible in parent and must not
		// have leaked into child unless child overwrote it (checked via
		// child's own map), and vice versa.
		for k, v := range pw {
			got, ok := parent.Read(k.obj, k.off)
			if !ok {
				return false
			}
			if c, _ := got.E.IsConst(); c != v {
				return false
			}
		}
		for k, v := range cw {
			got, ok := child.Read(k.obj, k.off)
			if !ok {
				return false
			}
			if c, _ := got.E.IsConst(); c != v {
				return false
			}
			if _, alsoParent := pw[k]; !alsoParent {
				// Parent must still see the pre-fork value, not child's.
				pv, _ := parent.Read(k.obj, k.off)
				if pc, _ := pv.E.IsConst(); pc == v && v != int64(k.obj*100) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: State.Fork isolates registers, constraints, mutexes, and
// schedule metadata, written through the paths the VM writes them by:
// the scheduled thread in place, the histories by appending, and the sync
// maps once the state owns them.
func TestStateForkIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		st := &State{
			Mem:         NewAddrSpace(),
			Box:         solver.NewBox(),
			Mutexes:     map[MutexKey]*MutexState{},
			CondWaiters: map[MutexKey][]int{},
			Snapshots:   map[MutexKey]*State{},
			envBufs:     map[string]int{},
			Threads: []*Thread{{
				ID:     0,
				Frames: []Frame{{Regs: make([]Value, 8)}},
			}},
		}
		st.syncOwner = st.Mem.self
		st.Threads[0].owner = st.Mem.self
		st.Mutexes[MutexKey{1, 0}] = &MutexState{Holder: -1}
		st.Constraints = append(st.Constraints, expr.Var("x"))
		fork := st.Fork()

		// Mutate the fork arbitrarily.
		fork.mutex(MutexKey{1, 0}).Holder = int(r.Int31n(3))
		fork.Constraints = append(fork.Constraints, expr.Var("y"))
		fork.CurThread().Frames[0].Regs[3] = IntVal(42)
		fork.ownSync()
		fork.CondWaiters[MutexKey{2, 0}] = []int{1}
		fork.Schedule = append(fork.Schedule, SchedSegment{Tid: 1})

		if st.Mutexes[MutexKey{1, 0}].Holder != -1 {
			t.Fatal("mutex state leaked to parent")
		}
		if len(st.Constraints) != 1 {
			t.Fatal("constraints leaked to parent")
		}
		if st.Threads[0].Frames[0].Regs[3].E != nil {
			t.Fatal("registers leaked to parent")
		}
		if len(st.CondWaiters) != 0 {
			t.Fatal("cond waiters leaked to parent")
		}
		if len(st.Schedule) != 0 {
			t.Fatal("schedule leaked to parent")
		}
	}
}

// TestConcurrentSnapshotFork: frontier-parallel workers fork one frozen
// K_S snapshot at once. Forking a state that holds no token must stay a
// pure read of it (CI runs this under the race detector), and each
// child's copy-on-write must keep its writes to itself.
func TestConcurrentSnapshotFork(t *testing.T) {
	b := mir.NewFuncBuilder("main")
	b.EmitRet(mir.I(0))
	prog := mir.NewProgram("snap")
	prog.AddGlobal(&mir.Global{Name: "g", Size: 4, Init: []int64{1, 2, 3, 4}})
	prog.AddFunc(b.F)
	e := New(prog, solver.New())
	init, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	// Forking a state that holds a token writes the token, so the
	// snapshot is frozen first, as DeadlockPolicy freezes its snapshots.
	snap := e.ForkState(init)
	snap.Freeze()
	g := snap.GlobalObj("g")

	const workers, forks = 8, 200
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			children := make([]*State, forks)
			for i := range children {
				children[i] = snap.Fork()
			}
			own := func(i int) int64 { return int64(100000*(w+1) + i) }
			for i, c := range children {
				if !c.Mem.Write(g, int64(i%4), IntVal(own(i))) {
					errs <- "child write failed"
					return
				}
			}
			for i, c := range children {
				for off := int64(0); off < 4; off++ {
					want := off + 1
					if off == int64(i%4) {
						want = own(i)
					}
					v, ok := c.Mem.Read(g, off)
					if got, _ := v.E.IsConst(); !ok || got != want {
						errs <- fmt.Sprintf("worker %d child %d reads g[%d] = %v, want %d", w, i, off, v, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	for off := int64(0); off < 4; off++ {
		if v, ok := snap.Mem.Read(g, off); !ok || v.String() != fmt.Sprint(off+1) {
			t.Errorf("snapshot g[%d] = %v after the forks, want %d", off, v, off+1)
		}
	}
}
