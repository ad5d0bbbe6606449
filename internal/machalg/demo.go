package machalg

import (
	"sync"
	"sync/atomic"

	"tbtso/internal/tso"
)

// ReclaimRaceOutcome reports one run of the §4 directed reclamation
// race (see ReclaimRaceDemo).
type ReclaimRaceOutcome struct {
	UseAfterFree bool // the reader dereferenced freed memory
	FreedEarly   bool // the node was freed while still protected
	Err          error
}

// ReclaimRaceDemo runs the directed interleaving behind the paper's §4
// argument — a reader protects a node without a fence while a
// reclaimer unlinks, retires, and tries to reclaim it — on a machine
// with the given Δ (0 = plain TSO) and hazard-pointer mode. It is the
// demo twin of the machalg test suite's soundness matrix.
//
// The atomic.Bool handshakes (validated/released) deliberately live
// OUTSIDE the machine model: they direct the interleaving and must not
// themselves be subject to the store buffering they orchestrate.
//
// Any sinks are attached to the machine, so the run can be traced
// (tbtso-sim -demo reclaim -o) or monitored: a late hazard publication
// is a commit that outstays Δ, so a monitor.Residency at the bound the
// reclaimer trusts reports it (tbtso-sim -demo reclaim -obs.monitor
// residency=8).
//
//tbtso:ignore escape harness handshake flags and the captured outcome struct intentionally bypass the model to direct the schedule; they are not algorithm memory
func ReclaimRaceDemo(delta uint64, mode HPMode, sinks ...tso.Sink) ReclaimRaceOutcome {
	cfg := tso.Config{Delta: delta, Policy: tso.DrainAdversarial, Seed: 1, MaxTicks: 1_000_000, Sinks: sinks}
	m := tso.New(cfg)
	alloc := NewAllocator(m, 4, nodeWords)
	hp := NewHPDomain(m, alloc, mode, 2, 3, 7, delta)
	l := NewList(m, hp, alloc)

	node := alloc.Alloc()
	m.SetWord(node+offKey, 1)
	m.SetWord(node+offNext, pack(0, 0))
	m.SetWord(l.head, pack(node, 0))

	var validated, released atomic.Bool
	out := ReclaimRaceOutcome{}

	m.Spawn("reader", func(th *tso.Thread) {
		curW := th.Load(l.head)
		cur, _ := unpack(curW)
		hp.Protect(th, 1, cur)
		if th.Load(l.head) != pack(cur, 0) {
			validated.Store(true)
			return
		}
		validated.Store(true)
		for !released.Load() {
			th.Yield()
		}
		_ = th.Load(cur + offKey) // the dereference at risk
		hp.Clear(th, 1)
	})
	m.Spawn("reclaimer", func(th *tso.Thread) {
		for !validated.Load() {
			th.Yield()
		}
		if !th.CAS(l.head, pack(node, 0), pack(0, 0)) {
			released.Store(true)
			return
		}
		hp.Retire(th, node)
		deadline := th.Clock() + delta + 200
		for {
			hp.Reclaim(th)
			if alloc.LiveObjects() == 0 {
				out.FreedEarly = true
				break
			}
			if th.Clock() > deadline {
				break
			}
		}
		released.Store(true)
	})
	res := m.Run()
	out.Err = res.Err
	for _, v := range alloc.Violations() {
		if v.Kind == "load" {
			out.UseAfterFree = true
		}
	}
	return out
}

// DequeOutcome reports one configuration of the §8 work-stealing demo.
type DequeOutcome struct {
	Duplicated int
	Lost       int
	SeedsTried int
}

// DequeDemo runs the fence-free work-stealing harvest across seeds on a
// machine with the given temporal bound Δ (0 = unbounded), spatial
// bound S (0 = unbounded buffers, the TSO[S] knob), and steal protocol
// (waitDelta). It stops at the first seed exhibiting a duplicate or
// lost item, or after `seeds` clean seeds.
func DequeDemo(delta uint64, bufferCap int, waitDelta bool, seeds int) DequeOutcome {
	for seed := int64(0); seed < int64(seeds); seed++ {
		if out := DequeOnce(delta, bufferCap, waitDelta, seed); out.Duplicated != 0 || out.Lost != 0 {
			out.SeedsTried = int(seed) + 1
			return out
		}
	}
	return DequeOutcome{SeedsTried: seeds}
}

// DequeOnce runs a single seed of the work-stealing harvest with the
// given sinks attached (tbtso-sim -demo deque -o). The returned outcome
// reports duplicates/losses for that one seed; a run that fails reports
// none.
func DequeOnce(delta uint64, bufferCap int, waitDelta bool, seed int64, sinks ...tso.Sink) DequeOutcome {
	out := DequeOutcome{SeedsTried: 1}
	policy := tso.DrainRandom
	if bufferCap > 0 {
		policy = tso.DrainAdversarial
	}
	cfg := tso.Config{Delta: delta, BufferCap: bufferCap, Policy: policy, Seed: seed, MaxTicks: 4_000_000, Sinks: sinks}
	got, res := dequeRun(cfg, waitDelta, 40, 2)
	if res.Err != nil {
		return out
	}
	for v := tso.Word(1); v <= 40; v++ {
		switch got[v] {
		case 1:
		case 0:
			out.Lost++
		default:
			out.Duplicated++
		}
	}
	return out
}

// dequeRun is the shared harvest harness (also used by the tests). The
// done flag and the mutex-protected harvest map are host-side harness
// state, deliberately outside the machine model.
//
//tbtso:ignore escape the done handshake and mutex-protected harvest map are harness bookkeeping, not algorithm memory; item flow itself goes through machine words
func dequeRun(cfg tso.Config, waitDelta bool, nItems, thieves int) (map[tso.Word]int, tso.Result) {
	m := tso.New(cfg)
	d := NewDeque(m, 64, cfg.Delta, waitDelta)
	var mu sync.Mutex
	got := map[tso.Word]int{}
	record := func(v tso.Word) {
		mu.Lock()
		got[v]++
		mu.Unlock()
	}
	var done atomic.Bool
	m.Spawn("owner", func(th *tso.Thread) {
		defer done.Store(true)
		next := tso.Word(1)
		for next <= tso.Word(nItems) {
			for i := 0; i < 3 && next <= tso.Word(nItems); i++ {
				if d.Push(th, next) {
					next++
				}
			}
			if v, ok := d.Take(th); ok {
				record(v)
			}
		}
		for i := 0; i < nItems+8; i++ {
			if v, ok := d.Take(th); ok {
				record(v)
			}
		}
	})
	for i := 0; i < thieves; i++ {
		m.Spawn("thief", func(th *tso.Thread) {
			for !done.Load() {
				if v, ok := d.Steal(th); ok {
					record(v)
				} else {
					th.Yield()
				}
			}
			for i := 0; i < 8; i++ {
				if v, ok := d.Steal(th); ok {
					record(v)
				}
			}
		})
	}
	res := m.Run()
	top := m.PeekWord(d.top)
	bottom := m.PeekWord(d.bottom)
	for i := top; i != bottom && i-top < 64; i++ {
		got[m.PeekWord(d.slot(i))]++
	}
	return got, res
}
