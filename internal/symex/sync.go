package symex

import (
	"fmt"

	"esd/internal/mir"
)

// execThreadCreate starts a simulated POSIX thread (§6.1): resolve the
// start routine, build its stack and register file, and enqueue it.
func (e *Engine) execThreadCreate(st *State, in *mir.Instr) ([]*State, error) {
	f := st.CurThread().Top()
	fn := e.Prog.Funcs[in.Sym]
	if fn == nil {
		return nil, fmt.Errorf("symex: thread_create of undefined %q", in.Sym)
	}
	arg := e.operand(f, in.A)
	nt := &Thread{ID: len(st.Threads), owner: st.Mem.self}
	regs := nt.newRegs(fn.NumRegs)
	if len(fn.Params) > 0 {
		regs[0] = arg
		for i := 1; i < len(fn.Params); i++ {
			regs[i] = IntVal(0)
		}
	}
	nt.pushFrame(Frame{Fn: fn, Regs: regs, RetDst: -1})
	st.Threads = append(st.Threads, nt)
	f.Regs[in.Dst] = IntVal(int64(nt.ID))
	st.recordSync(mir.ThreadCreate, NoMutex)
	st.advance()
	st.countStep()
	if e.Policy != nil {
		e.Policy.AfterSync(e, st, in, NoMutex)
	}
	return e.single(st), nil
}

func (e *Engine) execThreadJoin(st *State, in *mir.Instr) ([]*State, error) {
	t := st.CurThread()
	f := t.Top()
	v := e.operand(f, in.A)
	if !v.IsScalar() {
		return e.crash(st, in, CrashSegFault, "join of non-thread value %s", v), nil
	}
	tid64, ok := e.concretize(st, v.E)
	if !ok {
		return e.abortState(st, "join target unsolvable"), nil
	}
	target := st.Thread(int(tid64))
	if target == nil {
		return e.crash(st, in, CrashSegFault, "join of invalid thread id %d", tid64), nil
	}
	if target.ID == t.ID {
		return e.crash(st, in, CrashSegFault, "thread joins itself"), nil
	}
	if target.Status == ThreadExited {
		st.recordSync(mir.ThreadJoin, NoMutex)
		st.advance()
		st.countStep()
		if e.Policy != nil {
			e.Policy.AfterSync(e, st, in, NoMutex)
		}
		return e.single(st), nil
	}
	t.Status = ThreadBlockedJoin
	t.WaitTid = target.ID
	return e.reschedule(st)
}

func (e *Engine) execMutex(st *State, in *mir.Instr) ([]*State, error) {
	t := st.CurThread()
	f := t.Top()
	addr := e.operand(f, in.A)
	key, ok := e.mutexKeyOf(st, addr)
	if !ok {
		return e.crash(st, in, CrashSegFault, "%v on non-mutex value %s", in.Op, addr), nil
	}
	switch in.Op {
	case mir.MutexInit:
		st.ownSync()
		st.Mutexes[key] = &MutexState{Holder: -1}
		st.advance()
		st.countStep()
		if e.Policy != nil {
			e.Policy.AfterSync(e, st, in, key)
		}
		return e.single(st), nil

	case mir.MutexLock:
		if m := st.Mutexes[key]; m == nil || m.Holder == -1 {
			m = st.mutex(key)
			m.Holder = t.ID
			m.AcqLoc = st.Loc()
			st.recordSync(mir.MutexLock, key)
			st.advance()
			st.countStep()
			if e.Policy != nil {
				e.Policy.AfterSync(e, st, in, key)
			}
			return e.single(st), nil
		}
		// Held (possibly by this very thread: default mutexes self-deadlock,
		// which is exactly the SQLite #1672 mechanism).
		t.Status = ThreadBlockedMutex
		t.WaitMutex = key
		return e.reschedule(st)

	case mir.MutexUnlock:
		m := st.Mutexes[key]
		if m == nil || m.Holder != t.ID {
			return e.crash(st, in, CrashSegFault, "unlock of mutex %s not held by thread %d", key, t.ID), nil
		}
		st.mutex(key).Holder = -1
		for i, o := range st.Threads {
			if o.Status == ThreadBlockedMutex && o.WaitMutex == key {
				st.ownThread(i).Status = ThreadRunnable
			}
		}
		st.recordSync(mir.MutexUnlock, key)
		st.advance()
		st.countStep()
		if e.Policy != nil {
			e.Policy.AfterSync(e, st, in, key)
		}
		return e.single(st), nil
	}
	return nil, fmt.Errorf("symex: bad mutex opcode %v", in.Op)
}

func (e *Engine) execCond(st *State, in *mir.Instr) ([]*State, error) {
	t := st.CurThread()
	f := t.Top()
	caddr := e.operand(f, in.A)
	ckey, ok := e.mutexKeyOf(st, caddr)
	if !ok {
		return e.crash(st, in, CrashSegFault, "%v on non-condvar value %s", in.Op, caddr), nil
	}
	switch in.Op {
	case mir.CondWait:
		maddr := e.operand(f, in.B)
		mkey, ok := e.mutexKeyOf(st, maddr)
		if !ok {
			return e.crash(st, in, CrashSegFault, "cond_wait with invalid mutex %s", maddr), nil
		}
		switch t.CondPhase {
		case 0:
			// First execution: atomically release the mutex and wait.
			m := st.Mutexes[mkey]
			if m == nil || m.Holder != t.ID {
				return e.crash(st, in, CrashSegFault, "cond_wait without holding mutex %s", mkey), nil
			}
			st.mutex(mkey).Holder = -1
			for i, o := range st.Threads {
				if o.Status == ThreadBlockedMutex && o.WaitMutex == mkey {
					st.ownThread(i).Status = ThreadRunnable
				}
			}
			st.recordSync(mir.CondWait, ckey)
			st.ownSync()
			st.CondWaiters[ckey] = append(st.CondWaiters[ckey], t.ID)
			t.Status = ThreadBlockedCond
			t.WaitCond = ckey
			t.WaitMutex = mkey
			t.CondPhase = 1
			// Phase 0 has real effects (the mutex release) and must appear
			// in the strict schedule, so it costs one step; the program
			// counter stays put for the post-signal re-execution.
			st.countStep()
			return e.reschedule(st)
		default:
			// Signaled; reacquire the mutex before returning from wait.
			if m := st.Mutexes[mkey]; m == nil || m.Holder == -1 {
				m = st.mutex(mkey)
				m.Holder = t.ID
				m.AcqLoc = st.Loc()
				t.CondPhase = 0
				st.recordSync(mir.MutexLock, mkey)
				st.advance()
				st.countStep()
				if e.Policy != nil {
					e.Policy.AfterSync(e, st, in, mkey)
				}
				return e.single(st), nil
			}
			t.Status = ThreadBlockedMutex
			t.WaitMutex = mkey
			return e.reschedule(st)
		}

	case mir.CondSignal, mir.CondBroadcast:
		waiters := st.CondWaiters[ckey]
		n := 0
		if len(waiters) > 0 {
			n = 1
			if in.Op == mir.CondBroadcast {
				n = len(waiters)
			}
		}
		for _, id := range waiters[:n] {
			if i := st.threadIndex(id); i >= 0 && st.Threads[i].Status == ThreadBlockedCond {
				w := st.ownThread(i)
				w.Status = ThreadRunnable // will re-execute CondWait in phase 1+
				w.CondPhase = 2
			}
		}
		st.ownSync()
		st.CondWaiters[ckey] = append([]int(nil), waiters[n:]...)
		st.recordSync(in.Op, ckey)
		st.advance()
		st.countStep()
		if e.Policy != nil {
			e.Policy.AfterSync(e, st, in, ckey)
		}
		return e.single(st), nil
	}
	return nil, fmt.Errorf("symex: bad cond opcode %v", in.Op)
}
