package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tbtso/internal/obs"
)

// Options configures ExploreParallel. The zero value asks for the
// defaults: DefaultMaxStates budget, GOMAXPROCS workers, all
// reductions on, no metrics.
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
	// Metrics, if non-nil, receives explorer progress: counters
	// mc.states, mc.transitions, mc.dedup_hits, mc.por_prunes,
	// mc.terminal_collapses and gauges mc.states_per_sec,
	// mc.frontier_depth, mc.workers.
	Metrics *obs.Registry
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
	transitions atomic.Int64 // successors generated
	dedup       atomic.Int64 // successors already in the visited set
	porPrunes   atomic.Int64 // states expanded via a single invisible dequeue
	collapses   atomic.Int64 // terminal collapses (drain tails skipped)
	truncated   atomic.Bool
	interrupted atomic.Bool // Options.Context cancelled; workers drain without expanding

	start   time.Time
	metrics *engineMetrics
}

type engineMetrics struct {
	states, transitions, dedup, porPrunes, collapses *obs.Counter
	statesPerSec, frontier, workers                  *obs.Gauge
	pub                                              atomic.Bool
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		states:       r.Counter("mc.states"),
		transitions:  r.Counter("mc.transitions"),
		dedup:        r.Counter("mc.dedup_hits"),
		porPrunes:    r.Counter("mc.por_prunes"),
		collapses:    r.Counter("mc.terminal_collapses"),
		statesPerSec: r.Gauge("mc.states_per_sec"),
		frontier:     r.Gauge("mc.frontier_depth"),
		workers:      r.Gauge("mc.workers"),
	}
}

// worker owns a LIFO stack of encoded frontier states plus all the
// scratch the hot path needs, so steady-state expansion performs one
// allocation per novel state (the visited set's interned key) and none
// per transition.
type worker struct {
	e  *engine
	id int

	mu    sync.Mutex // guards stack (owner pops, thieves steal)
	stack []string

	cur, next state
	enc       []byte
	stealBuf  []string
	symKeys   [][][]byte          // per identity group, per member: encoding scratch
	outcomes  map[string]struct{} // reg-encoding outcome set
	sinceTick int
}

// ExploreParallel explores p under TBTSO[Δ] with a work-stealing
// frontier of Options.Workers goroutines over the compact state
// encoding, applying the reductions of reduce.go. The outcome set is
// deterministic (identical to ExploreSequential's) regardless of
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
		ageCap:     delta + 1,
		maxStates:  int64(maxStates),
		collapseOK: !opts.NoReduction,
		vis:        newVisited(),
		start:      time.Now(),
	}
	if delta == 0 {
		e.ageCap = 0 // ages are irrelevant without a bound; keep them 0
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
	if opts.Metrics != nil {
		e.metrics = newEngineMetrics(opts.Metrics)
		e.metrics.workers.Set(int64(nw))
	}

	e.workers = make([]*worker, nw)
	for i := range e.workers {
		w := &worker{e: e, id: i, outcomes: make(map[string]struct{})}
		w.symKeys = make([][][]byte, len(e.groups))
		for gi, g := range e.groups {
			w.symKeys[gi] = make([][]byte, len(g))
		}
		e.workers[i] = w
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

	res := Result{
		Outcomes:          e.mergeOutcomes(),
		States:            int(e.states.Load()),
		Transitions:       int(e.transitions.Load()),
		DedupHits:         int(e.dedup.Load()),
		PorPrunes:         int(e.porPrunes.Load()),
		TerminalCollapses: int(e.collapses.Load()),
	}
	e.publishFinal(res)
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
// outcome strings.
func (e *engine) mergeOutcomes() map[string]bool {
	keys := make(map[string]struct{})
	for _, w := range e.workers {
		for k := range w.outcomes {
			keys[k] = struct{}{}
		}
	}
	out := make(map[string]bool, len(keys))
	for k := range keys {
		regs := decodeRegs(k, len(e.p.Threads), e.p.Regs)
		orbit(e.groups, regs, func(r [][]int) {
			out[outcomeString(r)] = true
		})
	}
	return out
}

func (e *engine) publishFinal(res Result) {
	m := e.metrics
	if m == nil {
		return
	}
	m.states.Add(uint64(res.States))
	m.transitions.Add(uint64(res.Transitions))
	m.dedup.Add(uint64(res.DedupHits))
	m.porPrunes.Add(uint64(e.porPrunes.Load()))
	m.collapses.Add(uint64(e.collapses.Load()))
	m.frontier.Set(0)
	if el := time.Since(e.start).Seconds(); el > 0 {
		m.statesPerSec.Set(int64(float64(res.States) / el))
	}
}

// publishTick refreshes the live gauges; workers call it every few
// thousand expansions and the flag keeps concurrent publishers from
// piling up on the stack locks.
func (e *engine) publishTick() {
	m := e.metrics
	if m == nil || !m.pub.CompareAndSwap(false, true) {
		return
	}
	var depth int64
	for _, w := range e.workers {
		w.mu.Lock()
		depth += int64(len(w.stack))
		w.mu.Unlock()
	}
	m.frontier.Set(depth)
	if el := time.Since(e.start).Seconds(); el > 0 {
		m.statesPerSec.Set(int64(float64(e.states.Load()) / el))
	}
	m.pub.Store(false)
}

func (w *worker) pop() (string, bool) {
	w.mu.Lock()
	n := len(w.stack)
	if n == 0 {
		w.mu.Unlock()
		return "", false
	}
	k := w.stack[n-1]
	w.stack[n-1] = ""
	w.stack = w.stack[:n-1]
	w.mu.Unlock()
	return k, true
}

// steal moves up to half of some victim's stack (oldest entries first,
// which spreads shallow, wide subtrees) onto w's own stack and returns
// one item to expand. Victim and own locks are never held together.
func (w *worker) steal() (string, bool) {
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
		rest := copy(v.stack, v.stack[take:])
		for i := rest; i < n; i++ {
			v.stack[i] = ""
		}
		v.stack = v.stack[:rest]
		v.mu.Unlock()

		k := w.stealBuf[len(w.stealBuf)-1]
		w.mu.Lock()
		w.stack = append(w.stack, w.stealBuf[:len(w.stealBuf)-1]...)
		w.mu.Unlock()
		return k, true
	}
	return "", false
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
	e.transitions.Add(1)
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
		e.dedup.Add(1)
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
	n := &w.next
	en := n.bufs[i][0]
	// Shift down rather than reslice so the scratch slice keeps its
	// backing array (and capacity) across millions of reuses.
	copy(n.bufs[i], n.bufs[i][1:])
	n.bufs[i] = n.bufs[i][:len(n.bufs[i])-1]
	n.mem[en.addr] = en.val
	n.ageAll(w.e.ageCap)
	w.emit()
}

func (w *worker) recordOutcome(s *state) {
	w.enc = appendRegs(w.enc[:0], s.regs)
	if _, ok := w.outcomes[string(w.enc)]; !ok {
		w.outcomes[string(w.enc)] = struct{}{}
	}
}

// expand generates every admissible successor of the encoded state,
// mirroring the reference explorer's transition relation with the
// reductions of reduce.go layered on top.
func (w *worker) expand(key string) {
	e := w.e
	if e.truncated.Load() || e.interrupted.Load() {
		return
	}
	if w.sinceTick++; w.sinceTick >= 16384 {
		w.sinceTick = 0
		e.publishTick()
	}
	decodeState(&w.cur, e.p, key)
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
					e.collapses.Add(1)
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
			if len(s.bufs[i]) > 0 && s.bufs[i][0].age >= e.delta {
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
			e.porPrunes.Add(1)
			w.dequeue(s, i)
			return
		}
	}

	for i, ops := range e.p.Threads {
		// Voluntary dequeue.
		if len(s.bufs[i]) > 0 {
			w.dequeue(s, i)
		}
		if s.pc[i] >= len(ops) {
			continue
		}
		op := ops[s.pc[i]]
		switch op.Kind {
		case OpStore:
			s.copyInto(&w.next)
			n := &w.next
			n.bufs[i] = append(n.bufs[i], bufEntry{addr: op.Addr, val: op.Val})
			n.pc[i]++
			n.ageAll(e.ageCap)
			w.emit()
		case OpLoad:
			s.copyInto(&w.next)
			n := &w.next
			v := n.mem[op.Addr]
			for j := len(n.bufs[i]) - 1; j >= 0; j-- {
				if n.bufs[i][j].addr == op.Addr {
					v = n.bufs[i][j].val
					break
				}
			}
			n.regs[i][op.Reg] = v
			n.pc[i]++
			n.ageAll(e.ageCap)
			w.emit()
		case OpFence:
			if len(s.bufs[i]) == 0 {
				s.copyInto(&w.next)
				n := &w.next
				n.pc[i]++
				n.ageAll(e.ageCap)
				w.emit()
			}
		case OpRMW:
			if len(s.bufs[i]) == 0 {
				s.copyInto(&w.next)
				n := &w.next
				old := n.mem[op.Addr]
				n.regs[i][op.Reg] = old
				n.mem[op.Addr] = old + op.Val
				n.pc[i]++
				n.ageAll(e.ageCap)
				w.emit()
			}
		case OpWait:
			s.copyInto(&w.next)
			n := &w.next
			switch {
			case !n.armed[i] && op.Val > 0:
				// Arm the wait; it elapses as transitions occur.
				n.armed[i] = true
				n.wait[i] = op.Val
			case n.wait[i] == 0:
				// Elapsed (or zero-length): advance.
				n.armed[i] = false
				n.pc[i]++
			default:
				// Still pending: burn one transition.
			}
			n.ageAll(e.ageCap)
			w.emit()
		}
	}
}
