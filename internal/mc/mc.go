// Package mc is an exhaustive explicit-state model checker for
// litmus-sized programs under the TSO and TBTSO memory models. Where
// internal/tso samples executions of the clocked abstract machine with
// a seeded scheduler, this package enumerates EVERY interleaving and
// every drain schedule of a small straight-line program, so statements
// like "the 0/0 outcome is impossible under TBTSO[Δ=3]" become
// exhaustive proofs at that bound rather than statistical evidence.
//
// The model: each thread is a fixed sequence of operations over a small
// set of shared variables. A system state is (per-thread program
// counter and wait progress, per-thread FIFO store buffer with entry
// ages, memory, registers). Transitions are: execute a thread's next
// enabled operation, or dequeue the oldest entry of a thread's buffer.
// Every transition ages all buffered entries by one; under TBTSO[Δ] a
// state with an entry of age ≥ Δ admits only dequeue transitions for
// such entries — the temporal bound as a scheduling constraint, exactly
// the admissibility condition of §2. Δ = 0 means unbounded (plain TSO).
//
// Two engines share the model. ExploreSequentialBounded (reference.go)
// is the original recursive DFS, memoized on a plain-text state key,
// kept as the independent oracle. ExploreParallel (explore.go), and
// Explore on top of it, run a work-stealing frontier over a compact
// binary state encoding with a sharded visited set and sound
// reductions (terminal collapse, partial order and symmetry) — the
// same outcome sets. With two workers on a
// 2-vCPU VM it explores 0.85–1.25 M states/s at Ring4 scale. On the
// BENCH_mc.json cells of a thousand states or more it runs 0.9–2.5×
// the reference, ahead only where the reductions cut the most states
// (Ring4 at Δ=0); on litmus-sized programs fixed setup dominates and
// it is slower than the reference. See docs/MC.md.
package mc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// OpKind enumerates the operation alphabet.
type OpKind int

// The operations.
const (
	// OpStore buffers Val into Addr.
	OpStore OpKind = iota
	// OpLoad reads Addr (own buffer first, then memory) into Reg.
	OpLoad
	// OpFence completes only when the thread's buffer is empty.
	OpFence
	// OpRMW atomically adds Val to Addr and stores the OLD value into
	// Reg; it requires an empty buffer (x86 LOCK semantics).
	OpRMW
	// OpWait completes only after Val global transitions have occurred
	// since it became the thread's next operation — the "wait Δ time
	// units" of the TBTSO flag principle.
	OpWait
)

// Op is one instruction. Its JSON form is wire.go's.
type Op struct {
	Kind OpKind `json:"kind"`
	Addr int    `json:"addr,omitempty"`
	Val  int    `json:"val,omitempty"`
	Reg  int    `json:"reg,omitempty"`
}

// Convenience constructors.
func St(addr, val int) Op     { return Op{Kind: OpStore, Addr: addr, Val: val} }
func Ld(addr, reg int) Op     { return Op{Kind: OpLoad, Addr: addr, Reg: reg} }
func Fence() Op               { return Op{Kind: OpFence} }
func RMW(addr, v, reg int) Op { return Op{Kind: OpRMW, Addr: addr, Val: v, Reg: reg} }
func Wait(n int) Op           { return Op{Kind: OpWait, Val: n} }

// Program is a set of threads over Vars shared variables (all initially
// zero) and Regs registers per thread (all initially zero).
type Program struct {
	Threads [][]Op
	Vars    int
	Regs    int
}

// shape renders the program's dimensions for errors and panics.
func (p Program) shape(delta int) string {
	lens := make([]string, len(p.Threads))
	for i, t := range p.Threads {
		lens[i] = fmt.Sprint(len(t))
	}
	return fmt.Sprintf("%d threads (%s ops), %d vars, %d regs, Δ=%d",
		len(p.Threads), strings.Join(lens, "+"), p.Vars, p.Regs, delta)
}

// Result is the outcome of an exhaustive exploration.
type Result struct {
	// Outcomes maps canonical register-assignment strings (e.g.
	// "T0:r0=1 T1:r0=0") to true.
	Outcomes map[string]bool
	// States is the number of distinct states visited. For the
	// parallel engine this counts canonical states: reductions
	// (terminal collapse, partial order, symmetry) make it smaller
	// than the reference explorer's count for the same program.
	States int
	// Transitions is the number of successor states generated,
	// including ones the visited set deduplicated (parallel engine
	// only; the reference explorer leaves it zero).
	Transitions int
	// DedupHits is how many generated successors were already in the
	// visited set (parallel engine only).
	DedupHits int
	// PorPrunes is how many states were expanded through the
	// invisible-dequeue partial-order reduction instead of a full
	// successor fan-out (parallel engine only; the reference explorer
	// leaves it zero).
	PorPrunes int
	// TerminalCollapses is how many terminal states had their drain
	// tails collapsed instead of explored (parallel engine only).
	TerminalCollapses int
}

// Has reports whether the outcome string was observed.
func (r Result) Has(outcome string) bool { return r.Outcomes[outcome] }

// List returns the outcomes sorted.
func (r Result) List() []string {
	out := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type bufEntry struct {
	addr, val int
	age       int
}

// A state lives in two slabs, ints and entries, plus the armed flags,
// all allocated by newState or reset from the program's layout. The
// other fields are views into the slabs, so copying a state is a copy
// per slab and a length per buffer (docs/MC.md, "State layout").
type state struct {
	pc    []int
	wait  []int  // remaining Wait transitions per thread
	armed []bool // whether the thread's current Wait has been armed
	bufs  [][]bufEntry
	mem   []int
	regs  [][]int

	ints    []int      // pc | wait | mem | regs
	entries []bufEntry // thread i's buffer region, capacity = its store count
}

func newState(p Program) *state {
	s := &state{}
	s.reset(p)
	return s
}

// reset makes s p's initial state, reusing s's slabs when they are
// large enough. A buffer holds only its own thread's issued, uncommitted
// stores, so its region never outgrows the thread's store count.
func (s *state) reset(p Program) {
	n, vars, regs := len(p.Threads), p.Vars, p.Regs
	stores := 0
	for _, ops := range p.Threads {
		stores += storeCount(ops)
	}
	s.ints = slab(s.ints, 2*n+vars+n*regs)
	s.armed = slab(s.armed, n)
	s.entries = slab(s.entries, stores)
	s.bufs = slab(s.bufs, n)
	s.regs = slab(s.regs, n)
	s.pc, s.wait, s.mem = s.ints[:n:n], s.ints[n:2*n:2*n], s.ints[2*n:2*n+vars:2*n+vars]
	b, r := 0, 2*n+vars
	for i, ops := range p.Threads {
		c := storeCount(ops)
		s.bufs[i] = s.entries[b : b : b+c]
		s.regs[i] = s.ints[r : r+regs : r+regs]
		b, r = b+c, r+regs
	}
}

func storeCount(ops []Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind == OpStore {
			n++
		}
	}
	return n
}

// slab returns xs resized to n zero elements, reusing its capacity. A
// fresh slab is padded past a cache line, so slabs allocated back to
// back (the workers' scratch states) do not false-share.
func slab[T any](xs []T, n int) []T {
	if cap(xs) < n {
		var zero T
		return make([]T, n, n+64/int(unsafe.Sizeof(zero))+1)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// copyInto overwrites dst, which has s's layout, with s.
func (s *state) copyInto(dst *state) {
	copy(dst.ints, s.ints)
	copy(dst.armed, s.armed)
	copy(dst.entries, s.entries)
	for i, b := range s.bufs {
		dst.bufs[i] = dst.bufs[i][:len(b)]
	}
}

// ageAll advances every buffered entry's age by one, capping at cap
// (ages beyond the bound are equivalent, which keeps the space finite).
func (s *state) ageAll(cap int) {
	for i := range s.bufs {
		for j := range s.bufs[i] {
			if s.bufs[i][j].age < cap {
				s.bufs[i][j].age++
			}
		}
	}
	for i := range s.wait {
		if s.wait[i] > 0 {
			s.wait[i]--
		}
	}
}

// The transition relation: every engine (explore.go, reference.go) and
// the path checker (path.go) take transitions through these helpers, so
// the TSO/TBTSO rules are stated once. step and dequeue each end with
// the transition's ageing.

// ageCapFor is the age at which ageAll stops counting under Δ: ages past
// the bound are equivalent, and without a bound they stay 0.
func ageCapFor(delta int) int {
	if delta == 0 {
		return 0
	}
	return delta + 1
}

// mustDequeue reports whether thread i's oldest entry has reached Δ.
// While any thread's has, only such dequeues are admissible.
func (s *state) mustDequeue(i, delta int) bool {
	return delta > 0 && len(s.bufs[i]) > 0 && s.bufs[i][0].age >= delta
}

// dequeue is the transition that commits thread i's oldest entry to
// memory. It shifts the buffer in place so s keeps its capacity.
func (s *state) dequeue(i, ageCap int) {
	e := s.bufs[i][0]
	s.bufs[i] = append(s.bufs[i][:0], s.bufs[i][1:]...)
	s.mem[e.addr] = e.val
	s.ageAll(ageCap)
}

// enabled reports whether thread i may take op, its next op: a fence or
// an RMW needs an empty buffer.
func (s *state) enabled(i int, op Op) bool {
	return (op.Kind != OpFence && op.Kind != OpRMW) || len(s.bufs[i]) == 0
}

// load is thread i's read of addr: its newest buffered entry for addr,
// else memory. fromBuf reports a forwarded value.
func (s *state) load(i, addr int) (v int, fromBuf bool) {
	for j := len(s.bufs[i]) - 1; j >= 0; j-- {
		if s.bufs[i][j].addr == addr {
			return s.bufs[i][j].val, true
		}
	}
	return s.mem[addr], false
}

// step is the transition that takes op, thread i's next op, which must
// be enabled.
func (s *state) step(i int, op Op, ageCap int) {
	switch op.Kind {
	case OpStore:
		s.bufs[i] = append(s.bufs[i], bufEntry{addr: op.Addr, val: op.Val})
	case OpLoad:
		s.regs[i][op.Reg], _ = s.load(i, op.Addr)
	case OpRMW:
		s.regs[i][op.Reg] = s.mem[op.Addr]
		s.mem[op.Addr] += op.Val
	case OpWait:
		switch {
		case !s.armed[i] && op.Val > 0:
			// Arm the wait; it elapses as transitions occur.
			s.armed[i], s.wait[i] = true, op.Val
		case s.wait[i] > 0:
			// Still pending: burn one transition.
		default:
			// Elapsed (or zero-length): advance.
			s.armed[i] = false
			s.pc[i]++
		}
		s.ageAll(ageCap)
		return
	}
	s.pc[i]++
	s.ageAll(ageCap)
}

// FormatOutcome renders per-thread register files in the package's
// canonical "T0:r0=1 T1:r0=0" form — the key space of Result.Outcomes.
// External harnesses (internal/fuzz's machine runner) use it to put
// sampled executions in the checker's outcome vocabulary.
func FormatOutcome(regs [][]int) string { return string(AppendOutcome(nil, regs)) }

// AppendOutcome appends the canonical rendering of regs to dst and
// returns the extended slice — the allocation-free form of
// FormatOutcome for hot paths that format an outcome per machine run
// (fuzz campaigns reuse one buffer across a whole campaign).
func AppendOutcome(dst []byte, regs [][]int) []byte {
	first := true
	for i, rf := range regs {
		for r, v := range rf {
			if !first {
				dst = append(dst, ' ')
			}
			first = false
			dst = append(dst, 'T')
			dst = strconv.AppendInt(dst, int64(i), 10)
			dst = append(dst, ':', 'r')
			dst = strconv.AppendInt(dst, int64(r), 10)
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
	}
	return dst
}

// ParseOutcome inverts FormatOutcome for a program of the given shape:
// it returns the threads×regs register matrix the outcome names (a
// register the outcome omits reads 0), or false when a token is not
// "T<t>:r<r>=<v>" or names a thread or register outside the shape. It
// never panics, so callers may feed it outcomes of programs whose shape
// changed under them (shrinking does).
func ParseOutcome(outcome string, threads, regs int) ([][]int, bool) {
	out := make([][]int, threads)
	for i := range out {
		out[i] = make([]int, regs)
	}
	for _, tok := range strings.Fields(outcome) {
		// The newline anchors the match: a token with trailing junk fails
		// instead of parsing as its prefix.
		var t, r, v int
		if _, err := fmt.Sscanf(tok+"\n", "T%d:r%d=%d\n", &t, &r, &v); err != nil ||
			t < 0 || t >= threads || r < 0 || r >= regs {
			return nil, false
		}
		out[t][r] = v
	}
	return out, true
}

// DefaultMaxStates bounds an exploration. The parallel engine explores
// about a million states per second with two workers on a 2-vCPU VM
// (docs/PERF.md), so the budget is reached in about two seconds.
const DefaultMaxStates = 2_000_000

// Explore exhaustively enumerates all executions of p under TBTSO with
// the given drain bound Δ in transitions (0 = plain TSO, unbounded).
// It panics — naming the program shape and the states visited — if the
// state space exceeds DefaultMaxStates; use ExploreParallel with
// Options.MaxStates to handle truncation explicitly.
func Explore(p Program, delta int) Result {
	res, err := ExploreParallel(p, delta, Options{})
	if err != nil {
		panic(err.Error())
	}
	return res
}
