package tso

import "fmt"

// Run starts every spawned thread and drives the machine until all
// threads finish, MaxTicks elapses, or a thread panics. After the last
// thread finishes, remaining buffered stores are flushed to memory so
// the final memory state is a legal completion of the execution.
//
// Run is the goroutine engine: each thread is a Go function issuing
// actions through a *Thread handle and blocking between grants. The
// direct-execution engine (ExecProgram) runs straight-line mc.Program
// threads without goroutines. Both hand their threads to the one
// scheduler loop (loop); the two engines consume the seeded RNG
// identically, so a given (workload, Config) produces byte-identical
// outcomes, Stats and event streams on both.
func (m *Machine) Run() Result {
	n := len(m.threads)
	m.start(n)
	if m.halted == nil {
		m.halted = make(chan struct{})
	}
	names := make([]string, n)
	for i, ts := range m.threads {
		names[i] = ts.name
		t := &Thread{m: m, id: i, ts: ts}
		go func(ts *threadState, t *Thread) {
			defer func() {
				if r := recover(); r != nil && r != errHalted { //nolint:errorlint // sentinel identity
					m.fail(fmt.Errorf("tso: thread %d (%s) panicked: %v", t.id, ts.name, r))
				}
				close(ts.req)
			}()
			ts.fn(t)
		}(ts, t)
	}
	return m.loop(names)
}

// start moves a fresh machine into a run of n threads.
func (m *Machine) start(n int) {
	if m.started {
		panic("tso: Run called twice")
	}
	m.started = true
	m.sizeRun(n)
}

// loop is the scheduler loop of both engines: it announces the run to
// RunObserver sinks, then gathers, ticks and checks for failure until
// every thread is done, and flushes the buffers the threads left. The
// gather is its only engine-specific step: a run has spawned threads
// exactly when it is the goroutine engine's.
func (m *Machine) loop(names []string) Result {
	for _, s := range m.sinks {
		if ro, ok := s.(RunObserver); ok {
			ro.BeginRun(names, m.cfg.Delta)
		}
	}
	spawned := len(m.threads) > 0
	alive := m.n
	for alive > 0 {
		// Gather one request from every live thread that has none
		// pending: a receive from its goroutine, or the interpreter's
		// next request inline. Threads are in lockstep: local
		// computation happens while the machine waits here. A closed
		// channel or a finished program leaves r nil.
		for i := range m.n {
			if m.done[i] || m.pending[i] != nil {
				continue
			}
			var r *request
			if spawned {
				select {
				case r = <-m.threads[i].req:
				case <-m.halted:
					return m.finish()
				}
			} else if t := &m.itr[i]; t.next() {
				r = &t.req
			}
			if r == nil {
				m.done[i] = true
				alive--
				continue
			}
			m.pending[i] = r
		}
		if alive == 0 {
			break
		}
		if m.clock >= m.cfg.MaxTicks {
			m.fail(ErrMaxTicks)
			return m.finish()
		}
		m.clock++
		m.tick()
		if err := m.failure(); err != nil {
			return m.finish()
		}
	}
	m.finalFlush()
	return m.finish()
}

// finalFlush commits every store still buffered after all threads
// finished, so the final memory state is a legal completion.
func (m *Machine) finalFlush() {
	for i := range m.sb {
		for m.sb[i].size() > 0 {
			m.commitOldest(i, CauseFinal)
		}
	}
}

func (m *Machine) finish() Result {
	m.finished = true
	err := m.failure()
	if err != nil {
		// Halt any thread goroutines still blocked on the machine.
		// fail() is idempotent, so this is safe if already halted.
		m.fail(err)
	}
	return Result{Ticks: m.clock, Stats: m.stats, Err: err}
}

// tick executes one time unit: forced Δ-bound dequeues first, then
// voluntary dequeues per the drain policy, then at most one pending
// instruction per thread in seeded-random order. A thread whose action
// this tick was a dequeue does not also execute an instruction.
//
// RNG draw stream (documented because replay artifacts and the pinning
// tests depend on it): per tick the scheduler consumes, in order,
// (1) one IntN(2) coin per nonempty, lock-free, not-yet-drained buffer
// when the policy is DrainRandom; (2) the scheduling permutation, a
// Fisher–Yates shuffle drawing IntN(i+1) for i = threads-1 down to 1;
// (3) one Float64 stall draw per grant attempt when StallProb > 0
// (locked RMW continuations are exempt). Draws that cannot matter are
// skipped: when StallProb == 0 and the policy is not DrainRandom, the
// permutation is the tick's only consumer, so ticks with fewer than
// two grantable instructions skip it entirely — order among fewer than
// two candidates is immaterial, and with no other consumers no later
// draw's stream position shifts. With random drains or stalls every
// draw above is taken, so the stream per seed is fixed
// (TestRandomPolicySeedStreamPinned, TestStallSeedStreamPinned).
func (m *Machine) tick() {
	for i := range m.drained {
		m.drained[i] = false
	}
	m.osTicks()
	m.forcedDrains()
	m.policyDrains()

	if m.cfg.StallProb == 0 && m.cfg.Policy != DrainRandom {
		candidates, single := 0, -1
		for i := 0; i < m.n; i++ {
			if m.pending[i] != nil && !m.drained[i] {
				candidates++
				single = i
			}
		}
		if candidates == 0 {
			return
		}
		if candidates == 1 {
			m.grant(single)
			return
		}
	}
	for _, i := range m.permute() {
		if m.pending[i] == nil || m.drained[i] {
			continue
		}
		m.grant(i)
	}
}

// permute refills the reusable scheduling permutation with a uniform
// random order of the threads (Fisher–Yates), without allocating.
func (m *Machine) permute() []int {
	p := m.perm
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := m.rng.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// grant offers thread i's pending instruction to the machine: a stall
// draw may refuse it, and exec may leave it pending (lock busy, buffer
// nonempty). On completion the response is delivered to whichever
// engine owns the thread.
func (m *Machine) grant(i int) {
	r := m.pending[i]
	if m.cfg.StallProb > 0 && !r.locked && m.rng.Float64() < m.cfg.StallProb {
		return
	}
	if resp, done := m.exec(i, r); done {
		m.pending[i] = nil
		if len(m.threads) > 0 {
			m.threads[i].reply <- resp
		} else {
			m.progDeliver(i, resp)
		}
	}
}

// osTicks models the §6.2 timer interrupts: when thread i's
// phase-staggered timer fires, its store buffer drains completely (a
// user/kernel transition drains the buffer on x86) and the OS stamps
// the time array A[i]. Like forced drains, interrupt drains ignore the
// memory-subsystem lock (the lock models RMW atomicity, not interrupt
// masking on other cores).
func (m *Machine) osTicks() {
	p := m.cfg.TickPeriod
	if p == 0 {
		return
	}
	n := uint64(m.n)
	for i := 0; i < m.n; i++ {
		phase := uint64(i) * p / n
		if (m.clock+phase)%p != 0 {
			continue
		}
		for m.sb[i].size() > 0 {
			m.commitOldest(i, CauseInterrupt)
		}
		m.drained[i] = true // the interrupt consumed this thread's slot
		if m.cfg.TickBoard != 0 {
			m.memStore(m.cfg.TickBoard+Addr(i), Word(m.clock))
		}
	}
}

// lockFreeFor reports whether the memory subsystem lock permits an
// action on behalf of thread i (actions #1–#4 of the model).
func (m *Machine) lockFreeFor(i int) bool {
	return m.holder == -1 || m.holder == i
}

// forcedDrains dequeues stores whose Δ deadline is near. The machine
// starts forcing DrainMargin ticks early, and — unlike voluntary
// dequeues — forced dequeues ignore the memory subsystem lock: the lock
// is a modeling device for RMW atomicity, and on real hardware another
// core's store buffer drains into its own cache regardless of a LOCK
// operation elsewhere. Allowing the dequeue strictly reduces observable
// reordering and keeps the Δ bound exact; the commit-time check in
// commitOldest verifies the bound actually held.
func (m *Machine) forcedDrains() {
	if m.cfg.Delta == 0 {
		return
	}
	trigger := m.cfg.Delta - m.cfg.DrainMargin
	for i := range m.sb {
		if m.sb[i].size() == 0 {
			continue
		}
		if m.sb[i].oldest().enq+trigger <= m.clock {
			m.commitOldest(i, CauseDelta)
			if !m.cfg.ParallelDrains {
				m.drained[i] = true
			}
		}
	}
}

// policyDrains performs voluntary dequeues per the configured policy.
func (m *Machine) policyDrains() {
	for i := range m.sb {
		if m.drained[i] || m.sb[i].size() == 0 || !m.lockFreeFor(i) {
			continue
		}
		switch m.cfg.Policy {
		case DrainEager:
			// fall through to drain
		case DrainRandom:
			if m.rng.IntN(2) == 0 {
				continue
			}
		case DrainAdversarial:
			continue
		}
		m.commitOldest(i, CausePolicy)
		if !m.cfg.ParallelDrains {
			m.drained[i] = true
		}
	}
}

// commitOldest writes thread i's oldest buffered store to memory,
// attributing the dequeue to cause.
func (m *Machine) commitOldest(i int, cause DrainCause) {
	e := m.sb[i].pop()
	m.memStore(e.addr, e.val)
	m.stats.Commits++
	m.stats.Drains[cause]++
	lat := m.clock - e.enq
	if lat > m.stats.MaxCommitLatency {
		m.stats.MaxCommitLatency = lat
	}
	if m.cfg.Delta > 0 && lat > m.cfg.Delta {
		m.fail(ErrDeltaViolated)
	}
	if len(m.sinks) > 0 {
		m.emit(Event{Tick: m.clock, Thread: i, Kind: EvCommit, Addr: e.addr, Val: e.val, Cause: cause, Enq: e.enq})
	}
}

// exec attempts thread i's pending instruction; done reports whether
// the instruction completed, in which case resp is its result (the
// caller delivers it to the engine that owns the thread).
func (m *Machine) exec(i int, r *request) (resp response, done bool) {
	switch r.kind {
	case opStore:
		// Action #6: allowed at any time — except that under TSO[S] a
		// full buffer must first dequeue its oldest entry (that dequeue
		// is this tick's action for the thread).
		if cap := m.cfg.BufferCap; cap > 0 && m.sb[i].size() >= cap {
			if m.lockFreeFor(i) {
				m.commitOldest(i, CauseCapacity)
				m.drained[i] = true
			}
			return response{}, false
		}
		m.sb[i].push(sbEntry{addr: r.addr, val: r.val, enq: m.clock})
		if n := m.sb[i].size(); n > m.stats.MaxBufOccupancy {
			m.stats.MaxBufOccupancy = n
		}
		m.stats.Stores++
		if len(m.sinks) > 0 {
			m.emit(Event{Tick: m.clock, Thread: i, Kind: EvStore, Addr: r.addr, Val: r.val})
		}
		return response{}, true

	case opClock:
		// Action #7: allowed at any time.
		m.stats.ClockReads++
		return response{val: Word(m.clock)}, true

	case opLoad:
		// Action #2: requires the memory lock free or held by i.
		if !m.lockFreeFor(i) {
			return response{}, false
		}
		v, fromBuf := m.loadFor(i, r.addr)
		m.stats.Loads++
		if fromBuf {
			m.stats.BufferHits++
		}
		if len(m.sinks) > 0 {
			m.emit(Event{Tick: m.clock, Thread: i, Kind: EvLoad, Addr: r.addr, Val: v, FromBuf: fromBuf})
		}
		return response{val: v}, true

	case opFence:
		// Action #5: requires an empty buffer; the memory subsystem
		// dequeues one entry per tick on the thread's behalf first.
		if m.sb[i].size() > 0 {
			if m.lockFreeFor(i) {
				m.commitOldest(i, CauseFence)
				m.drained[i] = true
			}
			return response{}, false
		}
		m.stats.Fences++
		if len(m.sinks) > 0 {
			m.emit(Event{Tick: m.clock, Thread: i, Kind: EvFence})
		}
		return response{}, true

	case opCAS, opFetchAdd, opSwap:
		return m.execRMW(i, r)

	default:
		m.fail(fmt.Errorf("tso: unknown op kind %d", r.kind))
		return response{}, true
	}
}

// execRMW advances an atomic read-modify-write. Tick 1 acquires the
// memory subsystem lock (action #3); while the thread's buffer is
// nonempty the memory subsystem dequeues one entry per tick (action #1,
// permitted because the thread holds the lock); the final tick performs
// the read and write against memory and releases the lock.
func (m *Machine) execRMW(i int, r *request) (response, bool) {
	if !r.locked {
		if m.holder != -1 {
			return response{}, false // lock busy; retry next tick
		}
		m.holder = i
		r.locked = true
		return response{}, false // acquiring the lock was this tick's action
	}
	if m.sb[i].size() > 0 {
		m.commitOldest(i, CauseRMW)
		m.drained[i] = true
		return response{}, false
	}
	old := m.memLoad(r.addr)
	var (
		newVal Word
		wrote  bool
		ok     bool
		retV   Word
	)
	switch r.kind {
	case opCAS:
		if old == r.old {
			newVal, wrote, ok = r.val, true, true
		}
		retV = old
	case opFetchAdd:
		newVal, wrote, retV = old+r.val, true, old
	case opSwap:
		newVal, wrote, retV = r.val, true, old
	}
	if wrote {
		m.memStore(r.addr, newVal)
	} else {
		newVal = old
	}
	m.holder = -1
	m.stats.RMWs++
	if len(m.sinks) > 0 {
		m.emit(Event{Tick: m.clock, Thread: i, Kind: EvRMW, Addr: r.addr, Val: newVal})
	}
	return response{val: retV, ok: ok}, true
}

// loadFor implements the TSO read rule: newest matching store-buffer
// entry wins, otherwise memory.
func (m *Machine) loadFor(i int, a Addr) (Word, bool) {
	buf := m.sb[i].pending()
	for j := len(buf) - 1; j >= 0; j-- {
		if buf[j].addr == a {
			return buf[j].val, true
		}
	}
	return m.memLoad(a), false
}
