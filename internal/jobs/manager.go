package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"esd/internal/telemetry"
)

// Package-level instruments (the process-wide registry panics on
// duplicate names, so these register once even when tests build many
// managers). Per-state depth gauges are per-manager — the service renders
// them from Depths() next to its other engine-scoped series.
var (
	jobsSubmitted = telemetry.NewCounter("esd_jobs_submitted_total",
		"Jobs accepted into the store.")
	jobsFinished = telemetry.NewCounterVec("esd_jobs_finished_total",
		"Jobs that reached a terminal state, by state.", "state")
	jobsResumes = telemetry.NewCounter("esd_jobs_resumes_total",
		"Job slices that started from a persisted checkpoint (including post-restart recovery).")
	jobsPreemptions = telemetry.NewCounter("esd_jobs_preemptions_total",
		"Job slices that ended in a checkpoint (time slice expired or shutdown).")
	jobsCheckpointBytes = telemetry.NewHistogram("esd_jobs_checkpoint_bytes",
		"Encoded size of persisted job checkpoints.", 1)
	jobsCheckpointSeconds = telemetry.NewHistogram("esd_jobs_checkpoint_duration_seconds",
		"Wall-clock cost of building one search checkpoint.", 1e-9)
	jobsRecovered = telemetry.NewCounter("esd_jobs_recovered_total",
		"Jobs re-enqueued from the store at startup (crash or restart recovery).")
)

// Outcome is what a Runner reports for one slice of a job.
type Outcome struct {
	// Preempted: the slice ended at the preempt hook; Checkpoint is the
	// job's serialized progress and CheckpointNS what building and
	// encoding it cost.
	Preempted    bool
	Checkpoint   []byte
	CheckpointNS int64
	// Cancelled: the slice observed its context cancelled (the job was
	// withdrawn); nothing below is meaningful.
	Cancelled bool
	// Result is the final payload of a completed job.
	Result []byte
	// SolverWallNS is cumulative solver wall-clock across the job's whole
	// resume chain so far; InternerBytes the process interner footprint at
	// this slice boundary (the manager tracks the per-job peak).
	SolverWallNS  int64
	InternerBytes int64
}

// Runner executes one slice of a job: from j.Checkpoint if present, fresh
// otherwise, polling preempt and parking into a new checkpoint when it
// fires. A returned error fails the job permanently.
type Runner func(ctx context.Context, j *Job, preempt func() bool) (*Outcome, error)

// Config tunes a Manager.
type Config struct {
	// Store persists job records (required).
	Store *Store
	// Run executes one slice (required).
	Run Runner
	// Workers bounds concurrently running slices (default 1).
	Workers int
	// Slice is the preemption time slice: a job still running after this
	// long is checkpointed and requeued behind waiting work. 0 disables
	// preemption (jobs run to completion).
	Slice time.Duration
}

// Manager owns the job state machine: a FIFO run queue (preempted jobs
// requeue at the back, so slices round-robin across runnable jobs), a
// bounded worker pool, per-transition persistence, and event fan-out.
type Manager struct {
	store   *Store
	run     Runner
	slice   time.Duration
	workers int

	// closing is read lock-free by every running slice's preempt hook
	// (polled once per search iteration).
	closing atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []string
	closed bool
	// cancels holds the context cancel of every running slice, keyed by
	// job ID — the teeth behind Cancel.
	cancels map[string]context.CancelFunc
	subs    map[string]map[chan *Job]struct{}

	wg sync.WaitGroup
}

// NewManager builds a manager over cfg, recovers any non-terminal jobs
// from the store (running → last checkpoint or queued; work since the
// last persisted checkpoint is re-done, not lost), and starts the worker
// pool.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Store == nil {
		return nil, errors.New("jobs: Config.Store is required")
	}
	if cfg.Run == nil {
		return nil, errors.New("jobs: Config.Run is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	m := &Manager{
		store:   cfg.Store,
		run:     cfg.Run,
		slice:   cfg.Slice,
		workers: cfg.Workers,
		cancels: map[string]context.CancelFunc{},
		subs:    map[string]map[chan *Job]struct{}{},
	}
	m.cond = sync.NewCond(&m.mu)

	if err := m.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < m.workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover re-enqueues every non-terminal job found in the store. A job
// persisted as running died with its process: demote it to its last
// checkpoint (or to queued if it never completed a slice) and run it
// again — the checkpoint's determinism contract makes the redo converge
// on the same result. A synchronous job's waiter died with the process,
// so its record is deleted, whatever its state.
func (m *Manager) recover() error {
	// List is oldest first, so recovery preserves submission order.
	for _, j := range m.store.List() {
		if j.Sync {
			if err := m.store.Delete(j.ID); err != nil {
				return err
			}
			continue
		}
		if j.State.Terminal() {
			continue
		}
		if j.State == StateRunning {
			if len(j.Checkpoint) > 0 {
				j.State = StateCheckpointed
			} else {
				j.State = StateQueued
			}
			j.UpdatedUnixMS = time.Now().UnixMilli()
			if err := m.store.Put(j); err != nil {
				return err
			}
		}
		m.queue = append(m.queue, j.ID)
		jobsRecovered.Inc()
	}
	return nil
}

// Submit accepts a new job with the given opaque request payload,
// persisting it before returning its record. sync marks a job that the
// caller will wait on and delete (Job.Sync).
func (m *Manager) Submit(request []byte, sync bool) (*Job, error) {
	now := time.Now().UnixMilli()
	j := &Job{
		ID:            newID(),
		State:         StateQueued,
		Request:       append([]byte(nil), request...),
		Sync:          sync,
		CreatedUnixMS: now,
		UpdatedUnixMS: now,
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("jobs: manager is shut down")
	}
	if err := m.store.Put(j); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.queue = append(m.queue, j.ID)
	m.cond.Signal()
	m.publishLocked(j)
	m.mu.Unlock()
	jobsSubmitted.Inc()
	return j.Clone(), nil
}

// Get returns the job record.
func (m *Manager) Get(id string) (*Job, bool) { return m.store.Get(id) }

// List returns every job record, oldest first.
func (m *Manager) List() []*Job { return m.store.List() }

// Len counts the job records without copying them.
func (m *Manager) Len() int { return m.store.Len() }

// Depths counts jobs by state — the /healthz job-store depth payload.
func (m *Manager) Depths() map[State]int {
	// Every state is present (zero included) so pollers see a stable shape.
	out := make(map[State]int, len(States))
	for _, st := range States {
		out[st] = 0
	}
	for _, j := range m.store.List() {
		out[j.State]++
	}
	return out
}

// Cancel withdraws a job: a queued or checkpointed job is marked
// cancelled in place, a running job has its slice context cancelled (the
// worker finalizes the state). Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.store.Get(id)
	if !ok {
		return fmt.Errorf("jobs: no job %s", id)
	}
	switch {
	case j.State.Terminal():
		return nil
	case j.State == StateRunning:
		if cancel := m.cancels[id]; cancel != nil {
			cancel()
		}
		return nil
	default:
		j.State = StateCancelled
		j.Checkpoint = nil
		j.UpdatedUnixMS = time.Now().UnixMilli()
		if err := m.store.Put(j); err != nil {
			return err
		}
		jobsFinished.With(string(StateCancelled)).Inc()
		m.publishLocked(j)
		return nil
	}
}

// Delete removes a job record, cancelling it first if still live. A
// running job's record disappears immediately; its in-flight slice is
// cancelled and its final transition is dropped (the record is gone).
func (m *Manager) Delete(id string) error {
	if err := m.Cancel(id); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store.Delete(id)
}

// Subscribe streams the job's state transitions: the current record is
// delivered first, then every subsequent transition, the channel closing
// after a terminal one. The returned stop function releases the
// subscription (safe to call more than once).
func (m *Manager) Subscribe(id string) (<-chan *Job, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.store.Get(id)
	if !ok {
		return nil, nil, fmt.Errorf("jobs: no job %s", id)
	}
	// Buffered deep enough that a slow consumer misses intermediate
	// transitions (dropped oldest-first below), never the terminal one.
	ch := make(chan *Job, 64)
	ch <- j
	if j.State.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	set := m.subs[id]
	if set == nil {
		set = map[chan *Job]struct{}{}
		m.subs[id] = set
	}
	set[ch] = struct{}{}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			if set, ok := m.subs[id]; ok {
				if _, live := set[ch]; live {
					delete(set, ch)
					close(ch)
				}
				if len(set) == 0 {
					delete(m.subs, id)
				}
			}
		})
	}
	return ch, stop, nil
}

// publishLocked fans a job snapshot out to its subscribers, closing them
// after a terminal transition. Called with m.mu held.
func (m *Manager) publishLocked(j *Job) {
	set := m.subs[j.ID]
	if len(set) == 0 {
		return
	}
	terminal := j.State.Terminal()
	for ch := range set {
		snap := j.Clone()
		for {
			select {
			case ch <- snap:
			default:
				// Full: drop the oldest buffered snapshot and retry, so a
				// stalled consumer still sees the newest (and terminal) state.
				select {
				case <-ch:
					continue
				default:
				}
			}
			break
		}
		if terminal {
			close(ch)
		}
	}
	if terminal {
		delete(m.subs, j.ID)
	}
}

// Wait blocks until the job reaches a terminal state (or ctx is done)
// and returns its final record.
func (m *Manager) Wait(ctx context.Context, id string) (*Job, error) {
	ch, stop, err := m.Subscribe(id)
	if err != nil {
		return nil, err
	}
	defer stop()
	var last *Job
	for {
		select {
		case j, ok := <-ch:
			if !ok {
				if last == nil {
					// Subscription closed without a terminal snapshot: the
					// record was deleted out from under us.
					return nil, fmt.Errorf("jobs: job %s disappeared", id)
				}
				return last, nil
			}
			last = j
			if j.State.Terminal() {
				return j, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Close stops the worker pool: no new slices start, running slices are
// preempted at their next poll and parked as checkpoints (queued and
// checkpointed jobs stay in the store for the next process life). It
// returns once every worker has exited or ctx is done.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.closing.Store(true)
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// next blocks for the next runnable job ID, returning "" at shutdown.
func (m *Manager) next() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return ""
		}
		if len(m.queue) > 0 {
			id := m.queue[0]
			m.queue = m.queue[1:]
			return id
		}
		m.cond.Wait()
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		id := m.next()
		if id == "" {
			return
		}
		m.runOne(id)
	}
}

// runOne executes one slice of the job: queued/checkpointed → running →
// done/failed/cancelled, or back to checkpointed when the slice expires.
func (m *Manager) runOne(id string) {
	m.mu.Lock()
	j, ok := m.store.Get(id)
	if !ok || (j.State != StateQueued && j.State != StateCheckpointed) {
		// Deleted or cancelled while queued; nothing to run.
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.cancels[id] = cancel
	resumed := j.State == StateCheckpointed && len(j.Checkpoint) > 0
	j.State = StateRunning
	if resumed {
		j.Resumes++
	}
	j.UpdatedUnixMS = time.Now().UnixMilli()
	if err := m.store.Put(j); err != nil {
		// The store is unusable for this transition; leave the job queued
		// on disk and surface nothing — the next life retries it.
		delete(m.cancels, id)
		m.mu.Unlock()
		cancel()
		return
	}
	m.publishLocked(j)
	m.mu.Unlock()
	if resumed {
		jobsResumes.Inc()
	}

	// The slice clock starts at the FIRST preempt poll, not at dispatch:
	// a resumed search first rebuilds its frontier from the checkpoint
	// (re-interning constraints, replaying solver state), and that rebuild
	// cost grows with search progress. Timing the slice from dispatch would
	// let rebuild consume the whole quantum and preempt the search before
	// its first step — zero forward progress per slice, a livelock. Polls
	// come from the single search goroutine, so the lazy start needs no
	// lock.
	var sliceStart time.Time
	preempt := func() bool {
		if m.closing.Load() {
			return true
		}
		if m.slice <= 0 {
			return false
		}
		if sliceStart.IsZero() {
			sliceStart = time.Now()
			return false
		}
		return time.Since(sliceStart) >= m.slice
	}

	out, err := m.safeRun(ctx, j.Clone(), preempt)
	cancel()

	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cancels, id)
	cur, ok := m.store.Get(id)
	if !ok {
		return // deleted mid-slice; drop the outcome
	}
	j = cur
	j.UpdatedUnixMS = time.Now().UnixMilli()
	switch {
	case err != nil:
		j.State = StateFailed
		j.Error = err.Error()
		j.Checkpoint = nil
		jobsFinished.With(string(StateFailed)).Inc()
	case out.Cancelled:
		j.State = StateCancelled
		j.Checkpoint = nil
		jobsFinished.With(string(StateCancelled)).Inc()
	case out.Preempted:
		j.State = StateCheckpointed
		j.Checkpoint = out.Checkpoint
		j.Preemptions++
		j.CheckpointBytes = len(out.Checkpoint)
		j.CheckpointNS = out.CheckpointNS
		jobsPreemptions.Inc()
		jobsCheckpointBytes.Observe(int64(len(out.Checkpoint)))
		jobsCheckpointSeconds.Observe(out.CheckpointNS)
	default:
		j.State = StateDone
		j.Result = out.Result
		j.Checkpoint = nil
		jobsFinished.With(string(StateDone)).Inc()
	}
	if out != nil {
		if out.SolverWallNS > j.SolverWallNS {
			j.SolverWallNS = out.SolverWallNS
		}
		if out.InternerBytes > j.PeakInternerBytes {
			j.PeakInternerBytes = out.InternerBytes
		}
	}
	if err := m.store.Put(j); err != nil {
		// Can't persist the transition; the record keeps its previous
		// durable state and recovery re-runs the job.
		return
	}
	if j.State == StateCheckpointed {
		// Back of the queue: slices round-robin across runnable jobs.
		m.queue = append(m.queue, id)
		m.cond.Signal()
	}
	m.publishLocked(j)
}

// safeRun shields the worker from a panicking runner: the job fails, the
// pool survives.
func (m *Manager) safeRun(ctx context.Context, j *Job, preempt func() bool) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("jobs: runner panicked: %v", r)
		}
	}()
	out, err = m.run(ctx, j, preempt)
	if err == nil && out == nil {
		err = errors.New("jobs: runner returned no outcome")
	}
	return out, err
}
