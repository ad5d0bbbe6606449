package tso

import (
	"fmt"

	"tbtso/internal/mc"
)

// This file is the direct-execution engine: an interpreter that runs
// straight-line mc.Program threads inline in the scheduler loop — no
// goroutines, no channel handshakes, zero allocations per operation.
// It exists because every empirical campaign (fuzzing, planted-control
// detection, figure benchmarks) bottoms out in executing litmus-scale
// programs on this machine, and the goroutine engine pays two channel
// operations and a context switch per memory action.
//
// The engine runs the same scheduler loop as Run (loop, and under it
// tick, the drain phases, exec, commitOldest); the only differences are
// how a thread's next request is gathered (next, inline) and how its
// response is delivered (progDeliver). Requests go through the same
// request struct the goroutine engine's Thread handles fill in. The
// seeded RNG is therefore consumed identically: a given (program,
// Config) yields byte-identical outcomes, Stats, DrainStats and sink
// event streams on both engines (pinned by the engine-equivalence
// suite in internal/fuzz). The goroutine engine remains the oracle —
// and the only engine able to run arbitrary Go-closure workloads (the
// machalg kernels and demos).

// progThread is the interpreter's per-thread state: a program counter
// plus the wait-loop sub-state, and the reusable request the scheduler
// sees — the same struct a goroutine-engine Thread would fill in.
type progThread struct {
	ops      []mc.Op
	base     Addr // machine address of the program's variable 0
	regs     []int
	pc       int
	inWait   bool   // current op is an OpWait whose clock loop is running
	armed    bool   // the wait's first (deadline-arming) clock read completed
	deadline uint64 // absolute tick the wait spins until
	req      request
}

// ExecProgram runs p on the direct-execution engine, with p's variable
// v at machine address base+v (allocate p.Vars words with AllocWords
// first), and returns the same Result a goroutine-engine run of the
// equivalent Thread-handle program would: St → Store, Ld → Load,
// Fence → Fence, RMW → FetchAdd (old value into the register), Wait(n)
// → WaitUntil(Clock()+n). Loads and RMWs write into regs[thread][Reg]
// when regs is non-nil (the caller sizes it; a nil regs discards
// results).
//
// The machine must be in the pre-run state (fresh from New or Reset)
// with no spawned threads; afterwards it supports the same post-run
// inspection as Run, and Reset returns it to a reusable state. Calling
// Reset+ExecProgram in a loop executes an entire campaign on one
// machine with zero steady-state heap allocation
// (TestInterpSteadyStateZeroAlloc).
func (m *Machine) ExecProgram(p mc.Program, base Addr, regs [][]int) Result {
	if len(m.threads) > 0 {
		panic("tso: ExecProgram on a machine with spawned threads; use Run")
	}
	n := len(p.Threads)
	m.start(n)
	m.itr = resize(m.itr, n)
	for i := range m.itr {
		t := &m.itr[i]
		t.ops = p.Threads[i]
		t.base = base
		t.regs = nil
		if regs != nil {
			t.regs = regs[i]
		}
		t.pc = 0
		t.inWait = false
		t.armed = false
	}
	return m.loop(m.progNames(n))
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
	case mc.OpStore:
		t.req = request{kind: opStore, addr: t.base + Addr(op.Addr), val: Word(op.Val)}
	case mc.OpLoad:
		t.req = request{kind: opLoad, addr: t.base + Addr(op.Addr)}
	case mc.OpFence:
		t.req = request{kind: opFence}
	case mc.OpRMW:
		t.req = request{kind: opFetchAdd, addr: t.base + Addr(op.Addr), val: Word(op.Val)}
	case mc.OpWait:
		// First clock read arms the deadline; see progDeliver.
		t.inWait = true
		t.armed = false
		t.req = request{kind: opClock}
	default:
		panic(fmt.Sprintf("tso: unknown mc.OpKind %d", op.Kind))
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
	if (op.Kind == mc.OpLoad || op.Kind == mc.OpRMW) && t.regs != nil {
		t.regs[op.Reg] = int(resp.val)
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
