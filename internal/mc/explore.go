package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	// Workers is the worker-goroutine count; 0 means GOMAXPROCS.
	Workers int
	// NoReduction disables the reductions other than symmetry
	// (terminal collapse, invisible-dequeue priority and age-horizon
	// erasure), for differential testing against the reference
	// explorer's full state graph.
	NoReduction bool
	// NoSymmetry disables identical-thread canonicalization.
	NoSymmetry bool
	// Context, if non-nil, makes the exploration cooperatively
	// cancellable: on cancellation the workers drain their frontiers
	// without expanding further and ExploreParallel returns the partial
	// Result wrapped in a *InterruptedError. nil means uncancellable
	// (context.Background semantics, with no watcher goroutine).
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

// engine is one parallel exploration: program, reduction gates, the
// sharded visited set, and the shared counters workers coordinate on.
type engine struct {
	p          Program
	delta      int
	ageCap     int
	maxStates  int64
	collapseOK bool
	porOK      bool
	groups     [][]int // identical-thread identity groups (or nil)

	readsAfter, writesAfter [][]uint64 // suffix access masks (porOK)
	horizon                 [][]int    // suffix transition bounds (erasure on), or nil

	vis     *visited
	workers []*worker

	pending     atomic.Int64 // states queued but not yet expanded
	states      atomic.Int64 // distinct canonical states admitted
	truncated   atomic.Bool
	interrupted atomic.Bool // Options.Context cancelled; workers drain without expanding
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
	symKeys   [][][]byte          // per identity group, per member: encoding scratch
	outcomes  map[string]struct{} // reg-encoding outcome set
	counts
}

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
// exhaustion wins when both apply).
func ExploreParallel(p Program, delta int, opts Options) (Result, error) {
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

	e := &engine{
		p:          p,
		delta:      delta,
		ageCap:     ageCapFor(delta),
		maxStates:  int64(maxStates),
		collapseOK: !opts.NoReduction,
		vis:        newVisited(),
	}
	if !opts.NoReduction && delta == 0 && p.Vars <= 64 && !hasWaits(p) {
		e.porOK = true
		e.readsAfter, e.writesAfter = accessMasks(p)
	}
	if !opts.NoReduction && delta > 0 {
		e.horizon = horizons(p)
	}
	if !opts.NoSymmetry {
		e.groups = symGroups(p)
	}
	e.workers = make([]*worker, nw)
	for i := range e.workers {
		e.workers[i] = e.newWorker(i)
	}

	// Seed the frontier with the canonical initial state.
	w0 := e.workers[0]
	init := newState(p)
	if e.groups != nil {
		w0.canonicalize(init)
	}
	w0.enc = init.appendState(w0.enc[:0])
	key, _ := e.vis.insert(w0.enc)
	e.states.Store(1)
	e.pending.Store(1)
	w0.stack = append(w0.stack, key)

	// The cancellation watcher: flip the interrupted flag when the
	// context dies, so workers stop expanding at their next state and
	// drain the remaining frontier as no-ops. watcherDone keeps the
	// goroutine from outliving the exploration.
	ctx := opts.Context
	var watcherDone chan struct{}
	if ctx != nil {
		if ctx.Err() != nil {
			// Already cancelled: set the flag synchronously so even an
			// exploration the workers could finish instantly reports
			// the interruption deterministically.
			e.interrupted.Store(true)
		}
		watcherDone = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				e.interrupted.Store(true)
			case <-watcherDone:
			}
		}()
	}

	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()
	if watcherDone != nil {
		close(watcherDone)
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

// mergeOutcomes unions the workers' reg-encoded outcome sets, expands
// each through the symmetry group's orbit, and renders the canonical
// outcome strings. Decoding and rendering reuse one register file and
// one buffer, so only an outcome new to the result allocates.
func (e *engine) mergeOutcomes() map[string]bool {
	regs := make([][]int, len(e.p.Threads))
	for i := range regs {
		regs[i] = make([]int, e.p.Regs)
	}
	out := make(map[string]bool)
	var kb, buf []byte
	for _, w := range e.workers {
		for k := range w.outcomes {
			kb = append(kb[:0], k...)
			decodeRegs(regs, kb)
			orbit(e.groups, regs, func(r [][]int) {
				buf = AppendOutcome(buf[:0], r)
				if !out[string(buf)] {
					out[string(buf)] = true
				}
			})
		}
	}
	return out
}

// newWorker returns worker id, its scratch states in the program's layout.
func (e *engine) newWorker(id int) *worker {
	w := &worker{e: e, id: id, outcomes: make(map[string]struct{})}
	w.cur.reset(e.p)
	w.next.reset(e.p)
	w.symKeys = make([][][]byte, len(e.groups))
	for gi, g := range e.groups {
		w.symKeys[gi] = make([][]byte, len(g))
	}
	return w
}

func (w *worker) pop() ([]byte, bool) {
	w.mu.Lock()
	n := len(w.stack)
	if n == 0 {
		w.mu.Unlock()
		return nil, false
	}
	k := w.stack[n-1]
	w.stack = w.stack[:n-1]
	w.mu.Unlock()
	return k, true
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
			if e.pending.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		w.expand(k)
		e.pending.Add(-1)
	}
}

// admit charges one state against the budget; false means the budget
// is gone and the exploration is truncated. The CAS loop keeps the
// counter exact (never above the budget), so truncated Results report
// States == MaxStates.
func (e *engine) admit() bool {
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

// emit erases dead ages, canonicalizes, encodes and deduplicates
// w.next, pushing it onto the local stack when novel.
func (w *worker) emit() {
	e := w.e
	w.transitions++
	n := &w.next
	if e.horizon != nil {
		e.eraseAges(n)
	}
	if e.groups != nil {
		w.canonicalize(n)
	}
	w.enc = n.appendState(w.enc[:0])
	key, novel := e.vis.insert(w.enc)
	if !novel {
		w.dedup++
		return
	}
	if !e.admit() {
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
	w.enc = appendRegs(w.enc[:0], s.regs)
	if _, ok := w.outcomes[string(w.enc)]; !ok {
		w.outcomes[string(w.enc)] = struct{}{}
	}
}

// expand generates every admissible successor of the encoded state
// through the transition helpers (mc.go), with the reductions of
// reduce.go layered on top.
func (w *worker) expand(key []byte) {
	e := w.e
	if e.truncated.Load() || e.interrupted.Load() {
		return
	}
	decodeState(&w.cur, key)
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
