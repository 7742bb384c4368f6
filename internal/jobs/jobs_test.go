package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// sliceRunner finishes a job after a fixed number of slices, handing back
// a counting checkpoint in between — the Manager's view of a preemptible
// synthesis, without the synthesis.
func sliceRunner(slices int) Runner {
	return func(ctx context.Context, j *Job, preempt func() bool) (*Outcome, error) {
		if ctx.Err() != nil {
			return &Outcome{Cancelled: true}, nil
		}
		done := 0
		if len(j.Checkpoint) > 0 {
			n, err := strconv.Atoi(string(j.Checkpoint))
			if err != nil {
				return nil, fmt.Errorf("bad checkpoint %q", j.Checkpoint)
			}
			done = n
		}
		done++
		if done < slices {
			return &Outcome{
				Preempted:    true,
				Checkpoint:   []byte(strconv.Itoa(done)),
				CheckpointNS: 1000,
				SolverWallNS: int64(done) * 10,
			}, nil
		}
		return &Outcome{
			Result:        json.RawMessage(fmt.Sprintf(`{"slices":%d}`, done)),
			SolverWallNS:  int64(done) * 10,
			InternerBytes: 4096,
		}, nil
	}
}

func TestStoreRoundTrip(t *testing.T) {
	stores := map[string]*Store{"mem": NewStore()}
	fs, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["file"] = fs
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			j := &Job{ID: "a", State: StateQueued, Request: json.RawMessage(`{"x":1}`), Checkpoint: []byte("ckpt"), CreatedUnixMS: 7}
			if err := st.Put(j); err != nil {
				t.Fatal(err)
			}
			j.State = StateDone // the stored copy must not alias
			got, ok := st.Get("a")
			if !ok || got.State != StateQueued || string(got.Request) != `{"x":1}` {
				t.Fatalf("Get = %+v, %v", got, ok)
			}
			// Payloads are replaced whole, never written in place, so the
			// store shares them rather than copying a checkpoint per access.
			if &got.Checkpoint[0] != &j.Checkpoint[0] {
				t.Error("Get copied the checkpoint")
			}
			got.State = StateFailed
			if again, _ := st.Get("a"); again.State != StateQueued {
				t.Fatal("Get returned an aliased record")
			}
			if err := st.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get("a"); ok {
				t.Fatal("deleted job still present")
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCloneSharesPayloads: a clone shares the payloads instead of copying
// them, with their capacity clipped, so an append to the clone's payload
// cannot write into the original's array.
func TestCloneSharesPayloads(t *testing.T) {
	j := &Job{ID: "a", Checkpoint: make([]byte, 4, 64)}
	c := j.Clone()
	if &c.Checkpoint[0] != &j.Checkpoint[0] {
		t.Fatal("Clone copied the checkpoint")
	}
	c.Checkpoint = append(c.Checkpoint, 'x')
	if j.Checkpoint[:5][4] == 'x' {
		t.Error("an append to the clone's checkpoint wrote into the original's array")
	}
}

// TestFileStoreRecovery: jobs written before a crash (simulated by
// reopening without Close) must be there afterwards, WAL included.
func TestFileStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := strconv.Itoa(i)
		if err := st.Put(&Job{ID: id, State: StateQueued, CreatedUnixMS: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(&Job{ID: "3", State: StateCheckpointed, Checkpoint: []byte("ckpt"), CreatedUnixMS: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("4"); err != nil {
		t.Fatal(err)
	}
	// Simulate SIGKILL: no Close, and a torn final WAL line.
	wal := filepath.Join(dir, walName)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"job":{"id":"torn","sta`)
	f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	all := st2.List()
	if len(all) != 9 {
		t.Fatalf("recovered %d jobs, want 9", len(all))
	}
	if _, ok := st2.Get("4"); ok {
		t.Fatal("deleted job resurrected")
	}
	if j, ok := st2.Get("3"); !ok || j.State != StateCheckpointed || string(j.Checkpoint) != "ckpt" {
		t.Fatalf("job 3 = %+v, want checkpointed with its blob", j)
	}
	if _, ok := st2.Get("torn"); ok {
		t.Fatal("torn WAL record was applied")
	}
}

// TestFileStoreCompaction drives the WAL past its record bound and
// checks the snapshot absorbs it.
func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < compactEvery+10; i++ {
		if err := st.Put(&Job{ID: "hot", State: StateCheckpointed, Checkpoint: []byte(strconv.Itoa(i))}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n > compactEvery {
		t.Fatalf("WAL holds %d records, want <= %d after compaction", n, compactEvery)
	}
	st.Close()
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	j, ok := st2.Get("hot")
	if !ok || string(j.Checkpoint) != strconv.Itoa(compactEvery+9) {
		t.Fatalf("after compaction+reopen job = %+v", j)
	}
}

// TestLongRecordReplays: replay reads back every record Put wrote,
// however long. A 50 MiB checkpoint makes a 67 MiB log line once
// base64-encoded, long enough to catch a log reader with a line cap.
func TestLongRecordReplays(t *testing.T) {
	if raceEnabled {
		// One goroutine, so nothing to race; the detector only stretches
		// the 67 MiB JSON pass from about 2 s to 25 s.
		t.Skip("single-goroutine codec pass too slow under -race")
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := make([]byte, 50<<20)
	ckpt[len(ckpt)-1] = 7
	if err := st.Put(&Job{ID: "big", State: StateCheckpointed, Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after a long record: %v", err)
	}
	defer st2.Close()
	if j, ok := st2.Get("big"); !ok || !bytes.Equal(j.Checkpoint, ckpt) {
		t.Fatal("the long record did not replay intact")
	}
}

func TestManagerLifecycle(t *testing.T) {
	m, err := NewManager(Config{Store: NewStore(), Run: sliceRunner(4), Workers: 2, Slice: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	j, err := m.Submit([]byte(`{"app":"x"}`), false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state %s (err %q), want done", final.State, final.Error)
	}
	if string(final.Result) != `{"slices":4}` {
		t.Fatalf("result %s", final.Result)
	}
	if final.Preemptions != 3 || final.Resumes != 3 {
		t.Fatalf("preemptions=%d resumes=%d, want 3/3", final.Preemptions, final.Resumes)
	}
	if final.SolverWallNS != 40 || final.PeakInternerBytes != 4096 {
		t.Fatalf("solver wall %d, peak interner %d", final.SolverWallNS, final.PeakInternerBytes)
	}
	if final.Checkpoint != nil {
		t.Fatal("done job still carries a checkpoint")
	}
	if d := m.Depths(); d[StateDone] != 1 {
		t.Fatalf("depths %v", d)
	}
}

// TestManagerSubscribe sees every state of a multi-slice job in order.
func TestManagerSubscribe(t *testing.T) {
	gate := make(chan struct{})
	run := func(ctx context.Context, j *Job, preempt func() bool) (*Outcome, error) {
		<-gate
		return sliceRunner(2)(ctx, j, preempt)
	}
	m, err := NewManager(Config{Store: NewStore(), Run: run, Slice: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, err := m.Submit(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	close(gate)

	var states []State
	for snap := range ch {
		if len(states) == 0 || states[len(states)-1] != snap.State {
			states = append(states, snap.State)
		}
		if snap.State.Terminal() {
			break
		}
	}
	want := []State{StateQueued, StateRunning, StateCheckpointed, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("states %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states %v, want %v", states, want)
		}
	}
}

func TestManagerCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	run := func(ctx context.Context, j *Job, preempt func() bool) (*Outcome, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return &Outcome{Cancelled: true}, nil
		case <-block:
			return &Outcome{Result: []byte(`{}`)}, nil
		}
	}
	m, err := NewManager(Config{Store: NewStore(), Run: run, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	// Running job: cancel pulls its context.
	running, err := m.Submit(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Queued job behind it: cancel flips it in place, no worker involved.
	queued, err := m.Submit(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if j, _ := m.Get(queued.ID); j.State != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled", j.State)
	}
	if err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("running job state %s, want cancelled", final.State)
	}

	// Delete removes the record entirely.
	if err := m.Delete(running.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(running.ID); ok {
		t.Fatal("deleted job still present")
	}
}

func TestManagerFailure(t *testing.T) {
	boom := func(ctx context.Context, j *Job, preempt func() bool) (*Outcome, error) {
		return nil, errors.New("no such program")
	}
	m, err := NewManager(Config{Store: NewStore(), Run: boom})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	j, _ := m.Submit(nil, false)
	final, err := m.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Error != "no such program" {
		t.Fatalf("final %+v", final)
	}

	panics := func(ctx context.Context, j *Job, preempt func() bool) (*Outcome, error) {
		panic("runner bug")
	}
	m2, err := NewManager(Config{Store: NewStore(), Run: panics})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	j2, _ := m2.Submit(nil, false)
	final2, err := m2.Wait(context.Background(), j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateFailed {
		t.Fatalf("panicking runner left state %s, want failed", final2.State)
	}
}

// TestManagerRestartRecovery is the crash drill at the package level: a
// manager dies (simulated: store reopened without graceful close) with a
// job mid-chain; the next manager must resume it from the persisted
// checkpoint and finish, repeating only the interrupted slice.
func TestManagerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First life: a job that keeps checkpointing (it would take 1000
	// slices to finish — the "long synthesis").
	m1, err := NewManager(Config{Store: st, Run: sliceRunner(1000), Slice: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit([]byte(`{"req":true}`), false)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cur, ok := m1.Get(j.ID); ok && cur.Preemptions >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never checkpointed")
		}
		time.Sleep(time.Millisecond)
	}
	// Freeze the first life: stop its workers (this checkpoints the
	// running slice — exactly what a crash would NOT do; to model the
	// crash, rewrite the record to running as the WAL would hold it).
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	crashed, _ := st.Get(j.ID)
	if crashed == nil || len(crashed.Checkpoint) == 0 {
		t.Fatalf("no persisted checkpoint to crash with: %+v", crashed)
	}
	crashed.State = StateRunning // died mid-slice
	if err := st.Put(crashed); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Second life: the runner must see the persisted checkpoint and can
	// then finish in one more slice.
	var resumedFrom atomic.Int32
	finishRun := func(ctx context.Context, j *Job, preempt func() bool) (*Outcome, error) {
		n, err := strconv.Atoi(string(j.Checkpoint))
		if err != nil {
			return nil, fmt.Errorf("second life got no checkpoint: %q", j.Checkpoint)
		}
		resumedFrom.Store(int32(n))
		return &Outcome{Result: json.RawMessage(fmt.Sprintf(`{"slices":%d}`, n+1))}, nil
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2, err := NewManager(Config{Store: st2, Run: finishRun, Slice: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := m2.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("recovered job finished as %+v", final)
	}
	if got, want := string(final.Result), fmt.Sprintf(`{"slices":%d}`, resumedFrom.Load()+1); got != want {
		t.Fatalf("result %s, want %s (resumed from checkpoint %d)", got, want, resumedFrom.Load())
	}
	if resumedFrom.Load() < 2 {
		t.Fatalf("resumed from checkpoint %d, want the pre-crash progress (>= 2)", resumedFrom.Load())
	}
	if final.Resumes < 1 {
		t.Fatal("recovered job never counted a resume")
	}
	if string(final.Request) != `{"req":true}` {
		t.Fatalf("request payload lost: %q", final.Request)
	}
}

// TestManagerShutdownCheckpoints: Close preempts running slices into
// checkpoints instead of abandoning them.
// TestRecoveryDropsSyncJobs: a synchronous job's waiter dies with the
// process, so recovery deletes its record, live or finished, while every
// other job recovers as before.
func TestRecoveryDropsSyncJobs(t *testing.T) {
	st := NewStore()
	for _, j := range []*Job{
		{ID: "sync-running", State: StateRunning, Sync: true},
		{ID: "sync-done", State: StateDone, Sync: true},
		{ID: "async", State: StateQueued},
	} {
		if err := st.Put(j); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(Config{Store: st, Run: sliceRunner(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if js := m.List(); len(js) != 1 || js[0].ID != "async" {
		t.Fatalf("after recovery the store holds %d records, want only the async job", len(js))
	}
}

func TestManagerShutdownCheckpoints(t *testing.T) {
	started := make(chan struct{}, 1)
	run := func(ctx context.Context, j *Job, preempt func() bool) (*Outcome, error) {
		started <- struct{}{}
		for !preempt() {
			time.Sleep(time.Millisecond)
		}
		return &Outcome{Preempted: true, Checkpoint: []byte("parked")}, nil
	}
	st := NewStore()
	m, err := NewManager(Config{Store: st, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Submit(nil, false)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	parked, _ := st.Get(j.ID)
	if parked == nil || parked.State != StateCheckpointed || string(parked.Checkpoint) != "parked" {
		t.Fatalf("after shutdown job = %+v, want checkpointed", parked)
	}
}
