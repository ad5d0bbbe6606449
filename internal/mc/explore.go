package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Options configures ExploreParallel. The zero value asks for the
// defaults: DefaultMaxStates budget, GOMAXPROCS workers, all
// reductions on.
type Options struct {
	// MaxStates bounds the number of distinct (canonical) states
	// visited; 0 means DefaultMaxStates.
	MaxStates int
	// Workers is the worker count; 0 means GOMAXPROCS. One worker
	// explores on the caller's goroutine over a one-shard visited set,
	// the cheapest form for a caller that already runs one exploration
	// per core.
	Workers int
	// NoReduction disables the reductions other than symmetry
	// (terminal collapse and invisible-dequeue priority), for
	// differential testing against the reference explorer's full state
	// graph.
	NoReduction bool
	// NoSymmetry disables identical-thread canonicalization.
	NoSymmetry bool
	// Context, if non-nil, makes the exploration cooperatively
	// cancellable: on cancellation the workers drain their frontiers
	// without expanding further and ExploreParallel returns the partial
	// Result wrapped in a *InterruptedError. nil means uncancellable
	// (context.Background semantics, with no callback registered).
	Context context.Context
}

// ErrTruncated is the sentinel matched by errors.Is when an
// exploration exhausts its state budget.
var ErrTruncated = errors.New("mc: state budget exhausted")

// TruncatedError reports an exploration that hit its state budget; the
// accompanying Result is a partial subset of the outcome set. The same
// partial Result is carried in Partial, so callers that only see the
// error (or that treat the (Result, error) pair uniformly) can still
// render what WAS explored — absence of an outcome proves nothing, but
// presence is as real as in a completed run.
type TruncatedError struct {
	MaxStates int // the budget
	// States is the states visited. Invariant: States == MaxStates,
	// even under parallel admission — the admission counter is a CAS
	// loop that never overshoots the budget, it is monotone, and
	// truncation is only declared by a worker that observed the
	// counter at the budget, so when any worker trips it the counter
	// is exactly MaxStates and stays there. Pinned by
	// TestTruncatedStatesEqualsBudget at small budgets × many workers.
	States  int
	Shape   string // the program's dimensions and Δ
	Partial Result // the partial result: a subset of the outcome set
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("mc: state space truncated at %d of max %d states (program: %s); outcomes are a partial subset",
		e.States, e.MaxStates, e.Shape)
}

// Is makes errors.Is(err, ErrTruncated) hold.
func (e *TruncatedError) Is(target error) bool { return target == ErrTruncated }

// ErrInterrupted is the sentinel matched by errors.Is when an
// exploration is cancelled through Options.Context.
var ErrInterrupted = errors.New("mc: exploration interrupted")

// InterruptedError reports an exploration cancelled through
// Options.Context before completing; it mirrors *TruncatedError.
// Partial (== the returned Result) is a genuine subset of the outcome
// set: every outcome present was reached by a real execution and the
// merge over the states that WERE visited is deterministic, but
// absence proves nothing. Unlike truncation there is no States
// invariant — cancellation lands wherever the frontier happened to be.
// When an exploration both exhausts its budget and is cancelled, the
// budget wins: *TruncatedError is returned, because truncation is the
// stronger statement (the exploration would have stopped there anyway).
type InterruptedError struct {
	States  int    // states visited before the cancellation drained
	Shape   string // the program's dimensions and Δ
	Partial Result // the partial result: a subset of the outcome set
	Cause   error  // the context's error (context.Canceled / DeadlineExceeded)
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("mc: exploration interrupted after %d states (program: %s): %v; outcomes are a partial subset",
		e.States, e.Shape, e.Cause)
}

// Is makes errors.Is(err, ErrInterrupted) hold.
func (e *InterruptedError) Is(target error) bool { return target == ErrInterrupted }

// Unwrap exposes the context cause, so errors.Is(err, context.Canceled)
// also holds.
func (e *InterruptedError) Unwrap() error { return e.Cause }

// Explorer is a reusable context for the parallel engine: an
// exploration resets the engine, its visited set and its workers'
// scratch in place instead of allocating them, and drops only what grew
// past a small cap, so a caller that explores many small programs (a
// campaign worker) pays for their states and not for setup. The zero
// value is ready. Not safe for concurrent use.
type Explorer struct {
	e engine
}

// engine is one parallel exploration: program, reduction gates, the
// sharded visited set, and the shared counters workers coordinate on.
type engine struct {
	p          Program
	delta      int
	ageCap     int
	maxStates  int64
	collapseOK bool
	porOK      bool
	solo       bool  // one worker (reset): no locks, no pending count, no admission CAS
	soloStates int64 // states admitted while solo, stored into states at the end
	codec      codec
	groups     [][]int // identical-thread identity groups (empty without symmetry)

	readsAfter, writesAfter [][]uint64 // suffix access masks (porOK)

	vis     *visited
	workers []*worker

	pending     atomic.Int64 // states queued but not yet expanded (not kept when solo)
	states      atomic.Int64 // distinct canonical states admitted
	truncated   atomic.Bool
	interrupted *atomic.Bool // Options.Context cancelled; workers drain without expanding
	never       atomic.Bool  // interrupted when there is no context

	regs [][]int // mergeOutcomes scratch
	out  []byte
}

// worker owns a LIFO stack of encoded frontier states (views of the
// visited set's stored keys) plus all the scratch the hot path needs,
// so steady-state expansion allocates nothing per state or transition.
type worker struct {
	e  *engine
	id int

	mu    sync.Mutex // guards stack (owner pops, thieves steal)
	stack [][]byte

	cur, next state
	enc       []byte
	stealBuf  [][]byte
	symKeys   [][][]byte // per identity group, per member: encoding scratch
	outcomes  *visited   // reg-encoding outcome set, one shard
	counts
}

// keepStack caps the frontier an Explorer keeps between explorations.
const keepStack = 1 << 12

// counts are a worker's own tallies, summed once the workers stop. The
// padding keeps the owner's increments off the cache lines that thieves
// and neighbouring allocations touch.
type counts struct {
	_           [64]byte
	transitions int // successors generated
	dedup       int // successors already in the visited set
	porPrunes   int // states expanded via a single invisible dequeue
	collapses   int // terminal collapses (drain tails skipped)
	_           [64]byte
}

// ExploreParallel explores p under TBTSO[Δ] with a work-stealing
// frontier of Options.Workers goroutines over the compact state
// encoding, applying the reductions of reduce.go. The outcome set is
// deterministic (identical to ExploreSequentialBounded's) regardless of
// worker count or schedule; States/Transitions are deterministic for a
// completed exploration. On budget exhaustion it returns the partial
// Result and a *TruncatedError; on Options.Context cancellation it
// returns the partial Result and a *InterruptedError (budget
// exhaustion wins when both apply). It runs on a fresh Explorer.
func ExploreParallel(p Program, delta int, opts Options) (Result, error) {
	return new(Explorer).Explore(p, delta, opts)
}

// Explore is ExploreParallel on x's reused context.
func (x *Explorer) Explore(p Program, delta int, opts Options) (Result, error) {
	return x.explore(p, delta, opts, codecFor(p, delta))
}

// explore is Explore with the state encoding's width given.
func (x *Explorer) explore(p Program, delta int, opts Options, c codec) (Result, error) {
	if len(p.Threads) == 0 {
		return Result{Outcomes: map[string]bool{"": true}, States: 1}, nil
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	nw := opts.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	e := &x.e
	e.reset(p, delta, c, int64(maxStates), nw, opts)

	// Seed the frontier with the canonical initial state.
	w0 := e.workers[0]
	init := &w0.next
	if len(e.groups) > 0 {
		w0.canonicalize(init)
	}
	w0.enc = e.codec.appendState(w0.enc[:0], init)
	key, _ := e.vis.insert(w0.enc)
	e.states.Store(1)
	e.pending.Store(1)
	e.soloStates = 1
	w0.stack = append(w0.stack, key)

	// Cancellation flips a flag of this exploration's own, so workers
	// stop expanding at their next state and drain the remaining
	// frontier as no-ops; a callback that fires late sets a flag no
	// later exploration reads.
	ctx := opts.Context
	if ctx != nil {
		flag := new(atomic.Bool)
		e.interrupted = flag
		if ctx.Err() != nil {
			// Already cancelled: set the flag synchronously so even an
			// exploration the workers could finish instantly reports
			// the interruption deterministically.
			flag.Store(true)
		}
		stop := context.AfterFunc(ctx, func() { flag.Store(true) })
		defer stop()
	}

	if nw == 1 {
		w0.run()
		e.states.Store(e.soloStates)
	} else {
		var wg sync.WaitGroup
		for _, w := range e.workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.run()
			}(w)
		}
		wg.Wait()
	}

	res := Result{Outcomes: e.mergeOutcomes(), States: int(e.states.Load())}
	for _, w := range e.workers {
		res.Transitions += w.transitions
		res.DedupHits += w.dedup
		res.PorPrunes += w.porPrunes
		res.TerminalCollapses += w.collapses
	}
	if e.truncated.Load() {
		return res, &TruncatedError{MaxStates: maxStates, States: res.States, Shape: p.shape(delta), Partial: res}
	}
	if ctx != nil && ctx.Err() != nil && e.interrupted.Load() {
		return res, &InterruptedError{States: res.States, Shape: p.shape(delta), Partial: res, Cause: ctx.Err()}
	}
	return res, nil
}

// reset prepares e to explore p with nw workers, reusing its visited
// set when the shard count still fits and every worker's scratch.
// workers[0].next is left holding p's initial state.
func (e *engine) reset(p Program, delta int, c codec, maxStates int64, nw int, opts Options) {
	e.p, e.delta, e.ageCap, e.codec, e.maxStates = p, delta, ageCapFor(delta), c, maxStates
	e.collapseOK = !opts.NoReduction
	e.porOK = !opts.NoReduction && delta == 0 && p.Vars <= 64 && !hasWaits(p)
	if e.porOK {
		e.readsAfter, e.writesAfter = accessMasks(p, e.readsAfter, e.writesAfter)
	}
	e.groups = e.groups[:0]
	if !opts.NoSymmetry {
		e.groups = symGroups(p, e.groups)
	}
	e.truncated.Store(false)
	e.interrupted = &e.never
	e.solo = nw == 1

	shards := 1
	if nw > 1 {
		shards = parallelShards
	}
	if e.vis == nil || len(e.vis.shards) != shards {
		e.vis = newVisited(shards)
	} else {
		e.vis.reset()
	}
	for len(e.workers) < nw {
		e.workers = append(e.workers, &worker{e: e, id: len(e.workers), outcomes: newVisited(1)})
	}
	e.workers = e.workers[:nw]
	for _, w := range e.workers {
		w.reset()
	}
}

// reset empties w's frontier, tallies and outcome set and gives its
// scratch states the program's layout.
func (w *worker) reset() {
	e := w.e
	if cap(w.stack) > keepStack {
		w.stack = nil
	}
	clear(w.stack[:cap(w.stack)]) // views into chunks the visited set may drop
	w.stack = w.stack[:0]
	w.outcomes.reset()
	w.counts = counts{}
	w.cur.reset(e.p)
	w.next.reset(e.p)
	w.symKeys = slices.Grow(w.symKeys[:0], len(e.groups))[:len(e.groups)]
	for gi, g := range e.groups {
		w.symKeys[gi] = slices.Grow(w.symKeys[gi][:0], len(g))[:len(g)]
	}
}

// mergeOutcomes unions the workers' reg-encoded outcome sets, expands
// each through the symmetry group's orbit, and renders the canonical
// outcome strings. Decoding and rendering reuse one register file and
// one buffer, so only an outcome new to the result allocates.
func (e *engine) mergeOutcomes() map[string]bool {
	e.regs = rows(e.regs, len(e.p.Threads), func(int) int { return e.p.Regs })
	out := make(map[string]bool)
	for _, w := range e.workers {
		sh := &w.outcomes.shards[0]
		for _, slot := range sh.slots {
			if slot == 0 {
				continue
			}
			e.codec.decodeRegs(e.regs, sh.key(slot))
			orbit(e.groups, e.regs, func(r [][]int) {
				e.out = AppendOutcome(e.out[:0], r)
				if !out[string(e.out)] {
					out[string(e.out)] = true
				}
			})
		}
	}
	return out
}

func (w *worker) pop() ([]byte, bool) {
	solo := w.e.solo
	if !solo {
		w.mu.Lock()
	}
	n := len(w.stack)
	var k []byte
	if n > 0 {
		k, w.stack = w.stack[n-1], w.stack[:n-1]
	}
	if !solo {
		w.mu.Unlock()
	}
	return k, n > 0
}

// steal moves up to half of some victim's stack (oldest entries first,
// which spreads shallow, wide subtrees) onto w's own stack and returns
// one item to expand. Victim and own locks are never held together.
func (w *worker) steal() ([]byte, bool) {
	ws := w.e.workers
	for off := 1; off < len(ws); off++ {
		v := ws[(w.id+off)%len(ws)]
		v.mu.Lock()
		n := len(v.stack)
		if n == 0 {
			v.mu.Unlock()
			continue
		}
		take := (n + 1) / 2
		w.stealBuf = append(w.stealBuf[:0], v.stack[:take]...)
		v.stack = v.stack[:copy(v.stack, v.stack[take:])]
		v.mu.Unlock()

		k := w.stealBuf[len(w.stealBuf)-1]
		w.mu.Lock()
		w.stack = append(w.stack, w.stealBuf[:len(w.stealBuf)-1]...)
		w.mu.Unlock()
		return k, true
	}
	return nil, false
}

func (w *worker) run() {
	e := w.e
	for {
		k, ok := w.pop()
		if !ok {
			k, ok = w.steal()
		}
		if !ok {
			if e.solo || e.pending.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		w.expand(k)
		if !e.solo {
			e.pending.Add(-1)
		}
	}
}

// admit charges one state against the budget; false means the budget
// is gone and the exploration is truncated. The CAS loop keeps the
// counter exact (never above the budget), so truncated Results report
// States == MaxStates. A solo exploration counts without atomics.
func (e *engine) admit() bool {
	if e.solo {
		if e.soloStates >= e.maxStates {
			e.truncated.Store(true)
			return false
		}
		e.soloStates++
		return true
	}
	for {
		n := e.states.Load()
		if n >= e.maxStates {
			e.truncated.Store(true)
			return false
		}
		if e.states.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// emit canonicalizes, encodes and deduplicates w.next, pushing it onto
// the local stack when novel.
func (w *worker) emit() {
	e := w.e
	w.transitions++
	n := &w.next
	if len(e.groups) > 0 {
		w.canonicalize(n)
	}
	w.enc = e.codec.appendState(w.enc[:0], n)
	key, novel := e.vis.insert(w.enc)
	if !novel {
		w.dedup++
		return
	}
	if !e.admit() {
		return
	}
	if e.solo {
		w.stack = append(w.stack, key)
		return
	}
	e.pending.Add(1)
	w.mu.Lock()
	w.stack = append(w.stack, key)
	w.mu.Unlock()
}

// dequeue emits the successor where thread i's oldest entry commits.
func (w *worker) dequeue(s *state, i int) {
	s.copyInto(&w.next)
	w.next.dequeue(i, w.e.ageCap)
	w.emit()
}

func (w *worker) recordOutcome(s *state) {
	w.enc = w.e.codec.appendRegs(w.enc[:0], s.regs)
	w.outcomes.insert(w.enc)
}

// expand generates every admissible successor of the encoded state
// through the transition helpers (mc.go), with the reductions of
// reduce.go layered on top.
func (w *worker) expand(key []byte) {
	e := w.e
	if e.truncated.Load() || e.interrupted.Load() {
		return
	}
	e.codec.decodeState(&w.cur, key)
	s := &w.cur

	allDone := true
	for i := range e.p.Threads {
		if s.pc[i] < len(e.p.Threads[i]) {
			allDone = false
			break
		}
	}
	if allDone {
		if e.collapseOK {
			// Terminal collapse: only register-preserving dequeues
			// remain, so the outcome is already fixed.
			for i := range s.bufs {
				if len(s.bufs[i]) > 0 {
					w.collapses++
					break
				}
			}
			w.recordOutcome(s)
			return
		}
		empty := true
		for i := range s.bufs {
			if len(s.bufs[i]) > 0 {
				empty = false
				break
			}
		}
		if empty {
			w.recordOutcome(s)
			return
		}
	}

	// Forced dequeues: under TBTSO[Δ] an entry at age ≥ Δ must leave
	// before anything else happens.
	if e.delta > 0 {
		forced := false
		for i := range s.bufs {
			if s.mustDequeue(i, e.delta) {
				forced = true
				w.dequeue(s, i)
			}
		}
		if forced {
			return
		}
	}

	// Partial-order reduction: a provably invisible dequeue is the
	// only transition worth exploring from this state.
	if e.porOK {
		if i := e.invisibleDequeue(s); i >= 0 {
			w.porPrunes++
			w.dequeue(s, i)
			return
		}
	}

	for i, ops := range e.p.Threads {
		// Voluntary dequeue.
		if len(s.bufs[i]) > 0 {
			w.dequeue(s, i)
		}
		if s.pc[i] < len(ops) && s.enabled(i, ops[s.pc[i]]) {
			s.copyInto(&w.next)
			w.next.step(i, ops[s.pc[i]], e.ageCap)
			w.emit()
		}
	}
}
