package tso

import "fmt"

// This file is the direct-execution engine: an interpreter that runs
// straight-line Prog threads inline in the scheduler loop — no
// goroutines, no channel handshakes, zero allocations per operation.
// It exists because every empirical campaign (fuzzing, planted-control
// detection, figure benchmarks) bottoms out in executing litmus-scale
// programs on this machine, and the goroutine engine pays two channel
// operations and a context switch per memory action.
//
// The engine shares the entire scheduler core with Run — tick, the
// drain phases, exec, commitOldest — and produces its per-thread
// requests through the same request struct the goroutine engine's
// Thread handles fill in. The seeded RNG is therefore consumed
// identically: a given (program, Config) yields byte-identical
// outcomes, Stats, DrainStats and sink event streams on both engines
// (pinned by the engine-equivalence suite in internal/fuzz). The
// goroutine engine remains the oracle — and the only engine able to
// run arbitrary Go-closure workloads (the machalg kernels and demos).

// ProgOpKind enumerates the direct-execution engine's op alphabet. It
// deliberately mirrors the model checker's vocabulary (internal/mc)
// so checker programs compile 1:1.
type ProgOpKind uint8

// The operations.
const (
	// POpStore buffers Val into Addr (Thread.Store).
	POpStore ProgOpKind = iota
	// POpLoad reads Addr into register Reg (Thread.Load).
	POpLoad
	// POpFence completes only with an empty buffer (Thread.Fence).
	POpFence
	// POpRMW atomically adds Val to Addr, old value into Reg
	// (Thread.FetchAdd).
	POpRMW
	// POpWait is a clock-polling wait of Val ticks: one clock read to
	// arm, then clock reads until the deadline passes — exactly
	// Thread.WaitUntil(Thread.Clock()+Val), the §3 "wait Δ time units"
	// of the flag principle.
	POpWait
)

// ProgOp is one instruction of a Prog thread.
type ProgOp struct {
	Kind ProgOpKind
	Addr Addr
	Val  Word
	Reg  int
}

// Prog is a straight-line program for the direct-execution engine: one
// op sequence per thread. Addresses are absolute machine addresses
// (allocate them with AllocWords before ExecProgram).
type Prog struct {
	Threads [][]ProgOp
}

// progThread is the interpreter's per-thread state: a program counter
// plus the wait-loop sub-state, and the reusable request the scheduler
// sees — the same struct a goroutine-engine Thread would fill in.
type progThread struct {
	ops      []ProgOp
	regs     []Word
	pc       int
	inWait   bool   // current op is a POpWait whose clock loop is running
	armed    bool   // the wait's first (deadline-arming) clock read completed
	deadline uint64 // absolute tick the wait spins until
	done     bool
	req      request
}

// ExecProgram runs p on the direct-execution engine and returns the
// same Result a goroutine-engine run of the equivalent Thread-handle
// program would. Loads and RMWs write into regs[thread][Reg] when regs
// is non-nil (the caller sizes it; a nil regs discards results).
//
// The machine must be in the pre-run state (fresh from New or Reset)
// with no spawned threads; afterwards it supports the same post-run
// inspection as Run, and Reset returns it to a reusable state. Calling
// Reset+ExecProgram in a loop executes an entire campaign on one
// machine with zero steady-state heap allocation
// (TestInterpSteadyStateZeroAlloc).
func (m *Machine) ExecProgram(p Prog, regs [][]Word) Result {
	if m.started {
		panic("tso: Run called twice")
	}
	if len(m.threads) > 0 {
		panic("tso: ExecProgram on a machine with spawned threads; use Run")
	}
	m.started = true
	m.interp = true
	defer func() { m.interp = false }()
	n := len(p.Threads)
	m.sizeRun(n)
	if cap(m.itr) >= n {
		m.itr = m.itr[:n]
	} else {
		m.itr = append(m.itr[:cap(m.itr)], make([]progThread, n-cap(m.itr))...)
	}
	for i := range m.itr {
		t := &m.itr[i]
		t.ops = p.Threads[i]
		t.regs = nil
		if regs != nil {
			t.regs = regs[i]
		}
		t.pc = 0
		t.inWait = false
		t.armed = false
		t.done = false
	}

	if len(m.sinks) > 0 {
		names := m.progNames(n)
		for _, s := range m.sinks {
			if ro, ok := s.(RunObserver); ok {
				ro.BeginRun(names, m.cfg.Delta)
			}
		}
	}

	alive := n
	for alive > 0 {
		// Gather: the lockstep round structure of Run, minus the
		// channels — each live thread with no pending request produces
		// its next one inline.
		for i := range m.itr {
			t := &m.itr[i]
			if t.done || m.pending[i] != nil {
				continue
			}
			if !t.next() {
				t.done = true
				alive--
				continue
			}
			m.pending[i] = &t.req
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

// next fills t.req with the thread's next request; it reports false
// when the thread has finished its program.
func (t *progThread) next() bool {
	if t.inWait {
		t.req = request{kind: opClock}
		return true
	}
	if t.pc >= len(t.ops) {
		return false
	}
	op := t.ops[t.pc]
	switch op.Kind {
	case POpStore:
		t.req = request{kind: opStore, addr: op.Addr, val: op.Val}
	case POpLoad:
		t.req = request{kind: opLoad, addr: op.Addr}
	case POpFence:
		t.req = request{kind: opFence}
	case POpRMW:
		t.req = request{kind: opFetchAdd, addr: op.Addr, val: op.Val}
	case POpWait:
		// First clock read arms the deadline; see progDeliver.
		t.inWait = true
		t.armed = false
		t.req = request{kind: opClock}
	default:
		panic(fmt.Sprintf("tso: unknown ProgOpKind %d", op.Kind))
	}
	return true
}

// progDeliver consumes a completed request's response for thread i —
// the interpreter's counterpart of the goroutine engine's reply-channel
// send — and advances the thread's program counter or wait state.
func (m *Machine) progDeliver(i int, resp response) {
	t := &m.itr[i]
	if t.inWait {
		// Mirrors WaitUntil(Clock()+n): the arming read sets the
		// deadline, then the loop issues clock reads until one lands at
		// or past it. Each read is a granted action on its own tick,
		// exactly as the goroutine engine's spin costs.
		now := uint64(resp.val)
		if !t.armed {
			t.deadline = now + uint64(t.ops[t.pc].Val)
			t.armed = true
			return
		}
		if now < t.deadline {
			return
		}
		t.inWait = false
		t.pc++
		return
	}
	op := t.ops[t.pc]
	if (op.Kind == POpLoad || op.Kind == POpRMW) && t.regs != nil {
		t.regs[op.Reg] = resp.val
	}
	t.pc++
}

// progNames returns the cached "T0", "T1", ... thread names the
// direct-execution engine reports to RunObserver sinks — the same
// names the fuzz harness spawns goroutine-engine threads under, so the
// two engines' BeginRun calls match byte-for-byte.
func (m *Machine) progNames(n int) []string {
	for len(m.names) < n {
		m.names = append(m.names, fmt.Sprintf("T%d", len(m.names)))
	}
	return m.names[:n]
}
