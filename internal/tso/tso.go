// Package tso implements the TBTSO[Δ] abstract machine of Morrison and
// Afek, "Temporally Bounding TSO for Fence-Free Asymmetric
// Synchronization" (ASPLOS 2015), §2.
//
// The machine extends Sewell et al.'s x86-TSO abstract machine with a
// global clock and a bound Δ on the number of ticks a store may remain
// buffered in a thread's FIFO store buffer before the memory subsystem
// writes it to memory. Setting Δ = 0 disables the bound and yields plain
// (unbounded) TSO, which is the model under which fence-free algorithms
// are unsound; that mode exists so tests can demonstrate the unsoundness.
//
// Threads are ordinary Go functions that receive a *Thread handle and
// issue memory actions through it (Load, Store, CAS, FetchAdd, Swap,
// Fence, Clock). The machine runs threads in deterministic lockstep
// rounds driven by a seeded scheduler: each round the clock advances by
// one tick and, per the model, at most one action is executed for each
// thread — either an instruction the thread issued or a store-buffer
// dequeue performed on its behalf by the memory subsystem.
//
// Atomic read-modify-write operations are modeled with the global memory
// subsystem lock: the thread acquires the lock, the memory subsystem
// drains the thread's store buffer one entry per tick, and then the
// read-modify-write executes against memory and releases the lock. While
// the lock is held, other threads' reads and dequeues are blocked, which
// models the serialization cost of atomic operations. The final
// read+write+unlock is collapsed into a single tick; this is harmless
// because no other thread can observe memory while the lock is held.
package tso

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
)

// Addr is a word address in machine memory.
type Addr uint64

// Word is the unit of storage; all machine memory operations act on
// whole words.
type Word uint64

// DrainPolicy selects how eagerly the memory subsystem voluntarily
// dequeues buffered stores (beyond the dequeues forced by the Δ bound,
// fences and atomic operations).
type DrainPolicy int

const (
	// DrainRandom dequeues each thread's oldest buffered store with
	// probability 1/2 per tick. This is the default; it explores a broad
	// range of admissible TSO behaviours.
	DrainRandom DrainPolicy = iota
	// DrainEager dequeues whenever a buffer is nonempty. Store/load
	// reordering windows are minimal, approximating a write-through
	// machine.
	DrainEager
	// DrainAdversarial never dequeues voluntarily: stores stay buffered
	// until the Δ bound forces them out or a fence/atomic drains them.
	// Under Δ = 0 (plain TSO) this policy exhibits unbounded buffering,
	// the behaviour that makes fence-free synchronization unsound.
	DrainAdversarial
)

// drainPolicyNames holds each policy's name: String, MarshalText and
// UnmarshalText all read it, so a policy's text form is defined once.
var drainPolicyNames = [...]string{
	DrainRandom:      "random",
	DrainEager:       "eager",
	DrainAdversarial: "adversarial",
}

func (p DrainPolicy) String() string {
	if p >= 0 && int(p) < len(drainPolicyNames) {
		return drainPolicyNames[p]
	}
	return fmt.Sprintf("DrainPolicy(%d)", int(p))
}

// MarshalText encodes the policy as its name, so JSON documents and
// flags spell it "random", "eager" or "adversarial".
func (p DrainPolicy) MarshalText() ([]byte, error) {
	if p < 0 || int(p) >= len(drainPolicyNames) {
		return nil, fmt.Errorf("tso: unknown drain policy %d", int(p))
	}
	return []byte(drainPolicyNames[p]), nil
}

// UnmarshalText is MarshalText's inverse; an unknown name is an error
// that quotes it.
func (p *DrainPolicy) UnmarshalText(text []byte) error {
	for i, name := range drainPolicyNames {
		if name == string(text) {
			*p = DrainPolicy(i)
			return nil
		}
	}
	return fmt.Errorf("tso: unknown drain policy %q", text)
}

// Config parameterizes a Machine.
type Config struct {
	// Delta is the TBTSO bound in ticks: a store enqueued at tick t0 is
	// guaranteed to be in memory by tick t0+Delta. Zero means unbounded
	// (plain TSO).
	Delta uint64
	// BufferCap, if nonzero, bounds each store buffer to S entries —
	// the TSO[S] model of Morrison and Afek's earlier work [29], which
	// §8 contrasts with TBTSO: a store must drain before an S+1'th
	// store can enqueue, but a store can still stay buffered for an
	// unbounded TIME if the thread issues no further stores. Combine
	// with Delta=0 and the adversarial policy to reproduce exactly the
	// behaviour that makes TSO[S] unsuitable for nonblocking fence-free
	// algorithms.
	BufferCap int
	// TickPeriod, if nonzero, models the §6.2 OS support: every
	// TickPeriod ticks each thread receives a "timer interrupt" — a
	// user/kernel transition that drains its entire store buffer (x86
	// semantics, Intel SDM §11.10). Interrupts are phase-staggered
	// across threads as real per-core timers are.
	TickPeriod uint64
	// Policy selects the voluntary drain behaviour.
	Policy DrainPolicy
	// Seed drives the deterministic scheduler.
	Seed int64
	// MaxTicks aborts the run if the clock passes it. Zero selects a
	// large default (DefaultMaxTicks).
	MaxTicks uint64
	// StallProb is the per-thread per-tick probability that the
	// scheduler refuses to grant the thread's pending instruction,
	// modeling asynchronous delays (e.g. the thread being scheduled
	// out). Drains forced by Δ still happen. Zero disables stalls.
	StallProb float64
	// ParallelDrains, if true, lets voluntary and forced dequeues
	// proceed WITHOUT consuming the thread's one action for the tick.
	// The paper's abstract machine charges the dequeue as the thread's
	// action (a modeling simplification); real store buffers drain in
	// parallel with execution, so cost-model experiments
	// (machalg.LookupCost) set this to keep buffered stores from being
	// artificially as expensive as fenced ones. Semantically it only
	// ADDS admissible interleavings of the same actions.
	ParallelDrains bool
	// Sinks are event sinks attached before the run starts; each
	// machine event (store/commit/load/rmw/fence) is streamed to every
	// sink in order. Equivalent to calling AttachSink for each.
	Sinks []Sink
}

// DefaultMaxTicks is used when Config.MaxTicks is zero.
const DefaultMaxTicks = 2_000_000

// DrainStats breaks the run's commits down by drain cause, indexed by
// DrainCause. Every commit has exactly one cause, so the entries sum
// to Stats.Commits (asserted by TestDrainCausesSumToCommits).
type DrainStats [NumDrainCauses]uint64

// Stats aggregates counters for a completed run.
type Stats struct {
	Loads            uint64     // loads satisfied
	BufferHits       uint64     // loads forwarded from the store buffer
	Stores           uint64     // stores enqueued
	Commits          uint64     // stores written to memory
	RMWs             uint64     // atomic read-modify-writes executed
	Fences           uint64     // fences completed
	ClockReads       uint64     // global clock reads
	Drains           DrainStats // commits broken down by drain cause
	MaxBufOccupancy  int        // maximum store-buffer length observed
	MaxCommitLatency uint64     // maximum ticks any store stayed buffered
}

// Result describes a completed run.
type Result struct {
	Ticks uint64
	Stats Stats
	Err   error
}

// Machine errors.
var (
	// ErrMaxTicks reports that the run was aborted at Config.MaxTicks.
	ErrMaxTicks = errors.New("tso: clock passed MaxTicks before all threads finished")
	// ErrDeltaViolated reports that a store stayed buffered for more
	// than Δ ticks. Forced drains make this impossible; the commit-time
	// check stays as the invariant that proves it.
	ErrDeltaViolated = errors.New("tso: store commit exceeded the Δ bound")
	// ErrUnallocated reports that the run wrote a word no AllocWords
	// call covered.
	ErrUnallocated = errors.New("tso: store to an address outside AllocWords memory")
)

// errHalted is the sentinel panic value used to unwind thread goroutines
// when the machine halts early.
var errHalted = errors.New("tso: machine halted")

type sbEntry struct {
	addr Addr
	val  Word
	enq  uint64 // tick at which the store was enqueued
}

// storeBuf is a thread's FIFO store buffer: a slice plus a head index,
// so dequeues do not lose the backing array's capacity the way
// re-slicing from the front would. The array resets to index 0 every
// time the buffer empties, which it does constantly under any draining
// policy — steady-state enqueue/dequeue cycles allocate nothing.
type storeBuf struct {
	q    []sbEntry
	head int
}

func (b *storeBuf) size() int          { return len(b.q) - b.head }
func (b *storeBuf) oldest() *sbEntry   { return &b.q[b.head] }
func (b *storeBuf) push(e sbEntry)     { b.q = append(b.q, e) }
func (b *storeBuf) pending() []sbEntry { return b.q[b.head:] }

func (b *storeBuf) pop() sbEntry {
	e := b.q[b.head]
	b.head++
	if b.head == len(b.q) {
		b.q = b.q[:0]
		b.head = 0
	}
	return e
}

func (b *storeBuf) reset() {
	b.q = b.q[:0]
	b.head = 0
}

type opKind int

const (
	opStore opKind = iota
	opLoad
	opCAS
	opFetchAdd
	opSwap
	opFence
	opClock
)

type request struct {
	kind opKind
	addr Addr
	val  Word // store value / CAS new / add delta / swap value
	old  Word // CAS expected
	// locked marks an RMW that has already acquired the memory
	// subsystem lock and is waiting for its buffer to drain.
	locked bool
}

type response struct {
	val Word
	ok  bool
}

type threadState struct {
	name  string
	fn    func(*Thread)
	req   chan *request
	reply chan response // cap 1; the scheduler never has two outstanding replies for one thread
}

// Machine is a TBTSO[Δ] abstract machine. Configure it, then Spawn
// threads and Run, or ExecProgram an mc.Program. After a run finishes
// the machine supports inspection (PeekWord, Result) and can be
// returned to a fresh pre-run state with Reset, reusing its memory,
// store buffers and scheduler scratch across an entire campaign.
type Machine struct {
	cfg      Config
	mem      []Word // machine memory: word 0, then every AllocWords in order
	board    Addr   // §6.2 time array A's base address; 0 when none (SetTickBoard)
	sb       []storeBuf
	holder   int // memory subsystem lock holder; -1 if free
	clock    uint64
	rng      *rand.Rand
	src      rand.PCG // rng's source, reseeded in place (O(1)) by every Reset
	n        int      // thread count of the current run (either engine)
	threads  []*threadState
	itr      []progThread // direct-execution engine thread states
	pending  []*request
	done     []bool   // whether thread's program has finished
	drained  []bool   // whether thread's action this tick was a dequeue
	perm     []int    // reusable scheduler permutation
	names    []string // cached "T0","T1",... for ExecProgram's RunObservers
	stats    Stats
	sinks    []Sink
	halted   chan struct{}
	haltErr  error
	haltMu   sync.Mutex
	started  bool
	finished bool
}

// New returns a machine with the given configuration.
func New(cfg Config) *Machine {
	m := &Machine{}
	m.rng = rand.New(&m.src)
	m.Reset(cfg)
	return m
}

// Reset returns the machine to the pre-run state New leaves it in,
// under a new configuration, reusing every internal buffer it can —
// memory, store-buffer arrays, scheduler scratch. One machine can
// therefore be reused across an entire fuzz or bench campaign without
// per-run allocation (TestInterpSteadyStateZeroAlloc pins this). It
// panics if called while a run is in progress.
func (m *Machine) Reset(cfg Config) {
	if m.started && !m.finished {
		panic("tso: Reset during Run")
	}
	if cfg.MaxTicks == 0 {
		cfg.MaxTicks = DefaultMaxTicks
	}
	m.cfg = cfg
	m.mem = append(m.mem[:0], 0) // address 0 reserved as an obvious "null"
	m.board = 0
	for i := range m.sb {
		m.sb[i].reset()
	}
	m.holder = -1
	m.clock = 0
	m.src.Seed(uint64(cfg.Seed), 0)
	m.threads = m.threads[:0]
	m.n = 0
	m.stats = Stats{}
	m.sinks = m.sinks[:0]
	m.sinks = append(m.sinks, cfg.Sinks...)
	m.halted = nil // created on demand: only the goroutine engine's threads select on it
	m.haltErr = nil
	m.started = false
	m.finished = false
}

// memLoad reads machine memory; a word no AllocWords call covered
// reads as zero.
func (m *Machine) memLoad(a Addr) Word {
	if a < Addr(len(m.mem)) {
		return m.mem[a]
	}
	return 0
}

// memStore writes machine memory. A word no AllocWords call covered,
// the null word 0 included, has nowhere to go: the run fails with
// ErrUnallocated.
func (m *Machine) memStore(a Addr, v Word) {
	if a != 0 && a < Addr(len(m.mem)) {
		m.mem[a] = v
		return
	}
	m.fail(ErrUnallocated)
}

// sizeRun (re)dimensions the per-thread scheduler state for a run with
// n threads, reusing prior capacity.
func (m *Machine) sizeRun(n int) {
	m.n = n
	m.sb = resize(m.sb, n)
	m.pending = resize(m.pending, n)
	m.drained = resize(m.drained, n)
	m.done = resize(m.done, n)
	m.perm = resize(m.perm, n)
	for i := 0; i < n; i++ {
		m.sb[i].reset()
		m.pending[i] = nil
		m.drained[i] = false
		m.done[i] = false
	}
}

// resize returns xs with length n, keeping its elements and, when its
// capacity suffices, its backing array.
func resize[T any](xs []T, n int) []T {
	if cap(xs) >= n {
		return xs[:n]
	}
	return append(xs[:cap(xs)], make([]T, n-cap(xs))...)
}

// SetTickBoard installs the base address of the §6.2 time array A
// (allocate it with AllocWords(#threads) first): when thread i's timer
// interrupt fires (Config.TickPeriod), the OS writes the current clock
// directly to board+i. Adapted algorithms read A to establish store
// visibility. Reset removes the board. It may only be called before
// Run.
func (m *Machine) SetTickBoard(board Addr) {
	if m.started {
		panic("tso: SetTickBoard after Run")
	}
	m.board = board
}

// AllocWords reserves n consecutive words of machine memory and returns
// the address of the first. The words allocated so far are the
// machine's whole memory: loads elsewhere read zero and stores
// elsewhere fail the run (ErrUnallocated). It may only be called
// before Run.
func (m *Machine) AllocWords(n int) Addr {
	if m.started {
		panic("tso: AllocWords after Run")
	}
	a := len(m.mem)
	m.mem = resize(m.mem, a+n)
	clear(m.mem[a:]) // words a prior run left beyond Reset's length
	return Addr(a)
}

// SetWord initializes machine memory before the run starts. The word
// must lie in AllocWords memory.
func (m *Machine) SetWord(a Addr, v Word) {
	if m.started {
		panic("tso: SetWord after Run")
	}
	if a == 0 || a >= Addr(len(m.mem)) {
		panic(fmt.Sprintf("tso: SetWord at %d, outside AllocWords memory", a))
	}
	m.mem[a] = v
}

// PeekWord reads machine memory. It is intended for setup and post-run
// inspection and is panic-free for any address, including ones no
// AllocWords call ever covered (those read as zero, exactly as an
// uninitialized word does). Calling it while Run or ExecProgram is in
// progress races with the scheduler: the goroutine engine's scheduler
// loop runs concurrently with the caller, so mid-run reads are
// unsynchronized and may observe torn ordering — inspect only after Run
// or ExecProgram returns.
func (m *Machine) PeekWord(a Addr) Word { return m.memLoad(a) }

// Spawn registers a thread program. Threads are numbered in spawn order
// starting at 0. It may only be called before Run.
func (m *Machine) Spawn(name string, fn func(*Thread)) int {
	if m.started {
		panic("tso: Spawn after Run")
	}
	id := len(m.threads)
	m.threads = append(m.threads, &threadState{
		name:  name,
		fn:    fn,
		req:   make(chan *request),
		reply: make(chan response, 1),
	})
	return id
}

func (m *Machine) fail(err error) {
	m.haltMu.Lock()
	defer m.haltMu.Unlock()
	if m.haltErr == nil {
		m.haltErr = err
		// halted is nil for direct-execution runs: no thread goroutines
		// wait on it there, the engine loop polls failure() instead.
		if m.halted != nil {
			close(m.halted)
		}
	}
}

func (m *Machine) failure() error {
	if m.halted == nil {
		// The direct engine: only this, the scheduler goroutine, calls fail.
		return m.haltErr
	}
	m.haltMu.Lock()
	defer m.haltMu.Unlock()
	return m.haltErr
}
