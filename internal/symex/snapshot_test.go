package symex_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"esd/internal/lang"
	"esd/internal/mir"
	"esd/internal/sched"
	"esd/internal/solver"
	"esd/internal/symex"
)

// TestConcurrentPolicySnapshotFork: the K_S snapshot DeadlockPolicy takes
// before main's lock is preempted to a worker, which it shares with main.
// Frontier-parallel workers fork one such snapshot at once and step the
// forks, so the fork must stay a pure read of the frozen snapshot and of
// the threads it shares (CI runs this under the race detector), and no
// child's steps may reach the snapshot.
func TestConcurrentPolicySnapshotFork(t *testing.T) {
	prog := lang.MustCompile("snap.c", `
int m;
int n;
int g;
int worker(int k) {
	g = g + k;
	lock(&n);
	g = g + 10;
	unlock(&n);
	return 0;
}
int main() {
	int t1 = thread_create(worker, 1);
	int t2 = thread_create(worker, 2);
	lock(&m);
	g = 5;
	unlock(&m);
	thread_join(t1);
	thread_join(t2);
	return g;
}`)
	e := symex.New(prog, solver.New())
	e.Policy = &sched.DeadlockPolicy{}
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	for len(st.Snapshots) == 0 {
		if succ, err := e.Step(st); err != nil || len(succ) != 1 {
			t.Fatalf("step: %d successors, err %v (%s)", len(succ), err, st.Summary())
		}
	}
	var snap *symex.State
	for _, s := range st.Snapshots {
		snap = s
	}
	if snap.Cur == st.Cur || len(snap.Threads) != 3 {
		t.Fatalf("snapshot schedules T%d of %d threads, want a worker preempting main", snap.Cur, len(snap.Threads))
	}
	stepForksConcurrently(t, prog, snap)
}

// stepForksConcurrently forks snap from 8 goroutines, as frontier-parallel
// workers fork one K_S snapshot, and steps each fork on the goroutine's
// own engine. Every fork must step, and the snapshot must not change.
func stepForksConcurrently(t *testing.T, prog *mir.Program, snap *symex.State) {
	t.Helper()
	before := symex.EncodePool([]*symex.State{snap})
	const workers, forks, steps = 8, 20, 12
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ew := symex.New(prog, solver.New())
			ew.SetIDBase((w + 1) << 40)
			for i := 0; i < forks; i++ {
				c := ew.ForkState(snap)
				for j := 0; j < steps && c.Status == symex.StateRunning; j++ {
					if _, err := ew.Step(c); err != nil {
						errs <- fmt.Sprintf("worker %d fork %d: %v", w, i, err)
						return
					}
				}
				if c.Steps == snap.Steps {
					errs <- fmt.Sprintf("worker %d fork %d did not step", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if after := symex.EncodePool([]*symex.State{snap}); !bytes.Equal(before, after) {
		t.Error("stepping the snapshot's forks changed the snapshot")
	}
}
