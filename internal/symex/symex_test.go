package symex

import (
	"testing"

	"esd/internal/lang"
	"esd/internal/solver"
)

// runConcrete executes src with round-robin scheduling to termination.
func runConcrete(t *testing.T, src string) *State {
	t.Helper()
	prog := lang.MustCompile("t.c", src)
	e := New(prog, solver.New())
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	final, err := e.Run(st, 1_000_000)
	if err != nil {
		t.Fatalf("run: %v (%s)", err, final.Summary())
	}
	return final
}

// exploreAll BFS-explores every state up to limits, returning terminal
// states (testing helper standing in for the search package).
func exploreAll(t *testing.T, src string, maxStates int) []*State {
	t.Helper()
	prog := lang.MustCompile("t.c", src)
	e := New(prog, solver.New())
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	queue := []*State{st}
	var terminal []*State
	steps := 0
	for len(queue) > 0 && len(terminal) < maxStates && steps < 2_000_000 {
		cur := queue[0]
		queue = queue[1:]
		for cur.Status == StateRunning {
			steps++
			if steps >= 2_000_000 {
				break
			}
			succ, err := e.Step(cur)
			if err != nil {
				t.Fatal(err)
			}
			if len(succ) == 0 {
				break
			}
			cur = succ[0]
			queue = append(queue, succ[1:]...)
		}
		if cur.Status != StateRunning {
			terminal = append(terminal, cur)
		}
	}
	return terminal
}

func crashMessage(st *State) string {
	if st.Crash == nil {
		return ""
	}
	return st.Crash.Message
}

func exitCode(t *testing.T, st *State) int64 {
	t.Helper()
	if st.Status != StateExited {
		t.Fatalf("state did not exit cleanly: %s", st.Summary())
	}
	c, ok := st.ExitCode.E.IsConst()
	if !ok {
		t.Fatalf("exit code not concrete: %v", st.ExitCode)
	}
	return c
}

func TestArithmeticAndControlFlow(t *testing.T) {
	st := runConcrete(t, `
int main() {
	int acc = 0;
	for (int i = 1; i <= 10; i++) acc += i;
	int x = acc * 2 - 10;      // 100
	if (x == 100) acc = x / 4; // 25
	while (acc % 7 != 0) acc++;
	return acc;                // 28
}`)
	if got := exitCode(t, st); got != 28 {
		t.Fatalf("exit = %d, want 28", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	st := runConcrete(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int main() { return fib(10); }`)
	if got := exitCode(t, st); got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestArraysAndPointers(t *testing.T) {
	st := runConcrete(t, `
int g[5];
int sum(int *p, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += p[i];
	return s;
}
int main() {
	int local[4];
	for (int i = 0; i < 4; i++) local[i] = i * i;
	for (int i = 0; i < 5; i++) g[i] = i;
	int *q = &g[2];
	*q = 10;
	return sum(local, 4) + sum(g, 5);   // (0+1+4+9) + (0+1+10+3+4) = 32
}`)
	if got := exitCode(t, st); got != 32 {
		t.Fatalf("exit = %d, want 32", got)
	}
}

func TestStringsAndGlobalsInit(t *testing.T) {
	st := runConcrete(t, `
int tab[3] = {10, 20, 30};
int main() {
	int *s = "hi";
	return s[0] + s[1] + s[2] + tab[1];   // 'h'+'i'+0+20
}`)
	if got := exitCode(t, st); got != 'h'+'i'+20 {
		t.Fatalf("exit = %d", got)
	}
}

func TestIndirectCall(t *testing.T) {
	st := runConcrete(t, `
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
int main() {
	int f = &twice;
	int r = f(5);
	f = &thrice;
	return r + f(5);   // 10 + 15
}`)
	if got := exitCode(t, st); got != 25 {
		t.Fatalf("exit = %d, want 25", got)
	}
}

func TestMallocFree(t *testing.T) {
	st := runConcrete(t, `
int main() {
	int *p = malloc(3);
	p[0] = 7; p[1] = 8; p[2] = 9;
	int s = p[0] + p[2];
	free(p);
	free(0);   // free(NULL) ok
	return s;
}`)
	if got := exitCode(t, st); got != 16 {
		t.Fatalf("exit = %d, want 16", got)
	}
}

func TestNullDerefCrash(t *testing.T) {
	st := runConcrete(t, `
int main() {
	int *p = 0;
	return *p;
}`)
	if st.Status != StateCrashed || st.Crash.Kind != CrashSegFault {
		t.Fatalf("want segfault, got %s", st.Summary())
	}
}

func TestUseAfterFreeCrash(t *testing.T) {
	st := runConcrete(t, `
int main() {
	int *p = malloc(2);
	free(p);
	return p[0];
}`)
	if st.Status != StateCrashed || st.Crash.Kind != CrashSegFault {
		t.Fatalf("want use-after-free segfault, got %s", st.Summary())
	}
}

func TestDoubleFreeAndInvalidFree(t *testing.T) {
	st := runConcrete(t, `
int main() {
	int *p = malloc(2);
	free(p);
	free(p);
	return 0;
}`)
	if st.Status != StateCrashed || st.Crash.Kind != CrashInvalidFree {
		t.Fatalf("want invalid-free, got %s", st.Summary())
	}
	st = runConcrete(t, `
int main() {
	int a[2];
	free(a);
	return 0;
}`)
	if st.Status != StateCrashed || st.Crash.Kind != CrashInvalidFree {
		t.Fatalf("stack free: want invalid-free, got %s", st.Summary())
	}
}

func TestConcreteOutOfBounds(t *testing.T) {
	st := runConcrete(t, `
int main() {
	int a[3];
	a[3] = 1;
	return 0;
}`)
	if st.Status != StateCrashed || st.Crash.Kind != CrashOutOfBounds {
		t.Fatalf("want out-of-bounds, got %s", st.Summary())
	}
}

func TestDivByZeroConcrete(t *testing.T) {
	st := runConcrete(t, `
int main() {
	int z = 0;
	return 5 / z;
}`)
	if st.Status != StateCrashed || st.Crash.Kind != CrashDivZero {
		t.Fatalf("want div-zero, got %s", st.Summary())
	}
}

func TestDanglingStackPointer(t *testing.T) {
	st := runConcrete(t, `
int escape(int **out) {
	int local[2];
	*out = local;
	return 0;
}
int main() {
	int *p = 0;
	escape(&p);
	return *p;
}`)
	if st.Status != StateCrashed || st.Crash.Kind != CrashSegFault {
		t.Fatalf("want segfault on dangling stack pointer, got %s", st.Summary())
	}
}

func TestSymbolicBranchForksBothPaths(t *testing.T) {
	terms := exploreAll(t, `
int main() {
	int c = getchar();
	if (c == 'm') return 1;
	return 2;
}`, 10)
	codes := map[int64]bool{}
	for _, st := range terms {
		if st.Status == StateExited {
			// Exit code may be symbolic-free already (constant per path).
			c, ok := st.ExitCode.E.IsConst()
			if !ok {
				t.Fatalf("non-constant exit: %v", st.ExitCode)
			}
			codes[c] = true
		}
	}
	if !codes[1] || !codes[2] {
		t.Fatalf("expected both paths, got %v", codes)
	}
}

func TestSymbolicBranchModelIsConsistent(t *testing.T) {
	prog := lang.MustCompile("t.c", `
int main() {
	int c = getchar();
	int d = getchar();
	if (c == 'a' && d > c) return 1;
	return 2;
}`)
	s := solver.New()
	e := New(prog, s)
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	queue := []*State{st}
	found := false
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for cur.Status == StateRunning {
			succ, err := e.Step(cur)
			if err != nil {
				t.Fatal(err)
			}
			cur = succ[0]
			queue = append(queue, succ[1:]...)
		}
		if cur.Status == StateExited {
			if c, _ := cur.ExitCode.E.IsConst(); c == 1 {
				found = true
				res, model := s.Check(cur.Constraints)
				if res != solver.Sat {
					t.Fatalf("path constraints unsat: %v", cur.Constraints)
				}
				if model["stdin:0"] != 'a' || model["stdin:1"] <= 'a' {
					t.Fatalf("model does not satisfy program conditions: %v", model)
				}
			}
		}
	}
	if !found {
		t.Fatal("no state reached return 1")
	}
}

func TestSymbolicOOBForksCrashState(t *testing.T) {
	terms := exploreAll(t, `
int main() {
	int buf[4];
	int i = input("idx");
	buf[i] = 1;
	return 0;
}`, 10)
	var crashed, exited bool
	for _, st := range terms {
		switch st.Status {
		case StateCrashed:
			if st.Crash.Kind == CrashOutOfBounds {
				crashed = true
			}
		case StateExited:
			exited = true
		}
	}
	if !crashed || !exited {
		t.Fatalf("want both crash and clean exit, crashed=%v exited=%v", crashed, exited)
	}
}

func TestAssertForks(t *testing.T) {
	terms := exploreAll(t, `
int main() {
	int x = input("x");
	assert(x != 42);
	return 0;
}`, 10)
	var failed bool
	for _, st := range terms {
		if st.Status == StateCrashed && st.Crash.Kind == CrashAssert {
			failed = true
		}
	}
	if !failed {
		t.Fatal("assert violation state not found")
	}
}

func TestGetenvModel(t *testing.T) {
	terms := exploreAll(t, `
int main() {
	int *m = getenv("MODE");
	int *m2 = getenv("MODE");
	assert(m == m2);          // same buffer on repeated calls
	if (m[0] == 'Y') return 1;
	return 2;
}`, 10)
	codes := map[int64]bool{}
	for _, st := range terms {
		if st.Status == StateExited {
			c, _ := st.ExitCode.E.IsConst()
			codes[c] = true
		}
		if st.Status == StateCrashed {
			t.Fatalf("unexpected crash: %v", st.Crash)
		}
	}
	if !codes[1] || !codes[2] {
		t.Fatalf("expected both env paths, got %v", codes)
	}
}

func TestThreadsJoinAndSharedMemory(t *testing.T) {
	st := runConcrete(t, `
int g;
int m;
int worker(int n) {
	lock(&m);
	g += n;
	unlock(&m);
	return 0;
}
int main() {
	int t1 = thread_create(worker, 5);
	int t2 = thread_create(worker, 7);
	thread_join(t1);
	thread_join(t2);
	return g;
}`)
	if got := exitCode(t, st); got != 12 {
		t.Fatalf("g = %d, want 12", got)
	}
}

func TestSelfDeadlockDetected(t *testing.T) {
	st := runConcrete(t, `
int m;
int main() {
	lock(&m);
	lock(&m);
	return 0;
}`)
	if st.Status != StateDeadlocked {
		t.Fatalf("want deadlock, got %s", st.Summary())
	}
	if !st.Deadlock.Cycle {
		t.Fatalf("self-lock should be a cycle deadlock: %v", st.Deadlock)
	}
}

func TestJoinDeadlockNoProgress(t *testing.T) {
	st := runConcrete(t, `
int m;
int worker(int x) {
	lock(&m);   // main holds m forever
	return 0;
}
int main() {
	lock(&m);
	int t = thread_create(worker, 0);
	thread_join(t);
	return 0;
}`)
	if st.Status != StateDeadlocked {
		t.Fatalf("want deadlock, got %s", st.Summary())
	}
}

func TestCondVarSignal(t *testing.T) {
	st := runConcrete(t, `
int m;
int cv;
int ready;
int data;
int producer(int x) {
	lock(&m);
	data = 99;
	ready = 1;
	cond_signal(&cv);
	unlock(&m);
	return 0;
}
int main() {
	int t = thread_create(producer, 0);
	lock(&m);
	while (!ready) cond_wait(&cv, &m);
	int d = data;
	unlock(&m);
	thread_join(t);
	return d;
}`)
	if got := exitCode(t, st); got != 99 {
		t.Fatalf("data = %d, want 99", got)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	st := runConcrete(t, `
int m;
int cv;
int go_flag;
int done;
int waiter(int x) {
	lock(&m);
	while (!go_flag) cond_wait(&cv, &m);
	done += 1;
	unlock(&m);
	return 0;
}
int main() {
	int t1 = thread_create(waiter, 0);
	int t2 = thread_create(waiter, 0);
	int t3 = thread_create(waiter, 0);
	yield();
	lock(&m);
	go_flag = 1;
	cond_broadcast(&cv);
	unlock(&m);
	thread_join(t1); thread_join(t2); thread_join(t3);
	return done;
}`)
	if got := exitCode(t, st); got != 3 {
		t.Fatalf("done = %d, want 3", got)
	}
}

func TestUnlockNotHeldCrashes(t *testing.T) {
	st := runConcrete(t, `
int m;
int main() {
	unlock(&m);
	return 0;
}`)
	if st.Status != StateCrashed {
		t.Fatalf("want crash, got %s", st.Summary())
	}
}

func TestForkIsolationCOW(t *testing.T) {
	prog := lang.MustCompile("t.c", `
int g;
int main() {
	int c = getchar();
	if (c == 'x') { g = 1; return g; }
	g = 2;
	return g;
}`)
	e := New(prog, solver.New())
	st, err := e.InitialState()
	if err != nil {
		t.Fatal(err)
	}
	// Drive both forks to completion and check they do not share g.
	queue := []*State{st}
	var finals []*State
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for cur.Status == StateRunning {
			succ, err := e.Step(cur)
			if err != nil {
				t.Fatal(err)
			}
			cur = succ[0]
			queue = append(queue, succ[1:]...)
		}
		finals = append(finals, cur)
	}
	if len(finals) != 2 {
		t.Fatalf("want 2 terminal states, got %d", len(finals))
	}
	codes := map[int64]bool{}
	for _, fs := range finals {
		c, _ := fs.ExitCode.E.IsConst()
		codes[c] = true
	}
	if !codes[1] || !codes[2] {
		t.Fatalf("COW leak between forks: exit codes %v", codes)
	}
}

func TestScheduleRecording(t *testing.T) {
	st := runConcrete(t, `
int worker(int x) { return x; }
int main() {
	int t = thread_create(worker, 1);
	thread_join(t);
	return 0;
}`)
	if st.Status != StateExited {
		t.Fatalf("bad status: %s", st.Summary())
	}
	if len(st.Schedule) < 3 {
		t.Fatalf("expected >=3 schedule segments (main, worker, main), got %v", st.Schedule)
	}
	var total int64
	for _, seg := range st.Schedule {
		total += seg.Steps
	}
	if total != st.Steps {
		t.Fatalf("schedule accounts %d steps, state has %d", total, st.Steps)
	}
	if len(st.SyncEvents) == 0 {
		t.Fatal("no sync events recorded")
	}
}

func TestWrongArityIndirectCallCrashes(t *testing.T) {
	st := runConcrete(t, `
int two(int a, int b) { return a + b; }
int main() {
	int f = &two;
	return f(1);
}`)
	if st.Status != StateCrashed {
		t.Fatalf("want crash on arity mismatch, got %s", st.Summary())
	}
}

func TestTernaryAndShortCircuitEvaluation(t *testing.T) {
	st := runConcrete(t, `
int g;
int bump() { g++; return 1; }
int main() {
	int a = 0 && bump();   // bump not called
	int b = 1 || bump();   // bump not called
	int c = (a == 0 && b == 1) ? 5 : 9;
	return c * 10 + g;     // 50
}`)
	if got := exitCode(t, st); got != 50 {
		t.Fatalf("exit = %d, want 50", got)
	}
}
