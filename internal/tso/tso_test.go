package tso

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tbtso/internal/mc"
)

func TestReadOwnWriteForwarding(t *testing.T) {
	// Under the adversarial policy with plain TSO the store never
	// reaches memory while the thread runs, yet the thread must read
	// its own buffered value (TSO read rule).
	m := New(Config{Policy: DrainAdversarial, Seed: 1})
	a := m.AllocWords(1)
	var got Word
	m.Spawn("w", func(th *Thread) {
		th.Store(a, 42)
		got = th.Load(a)
	})
	res := m.Run()
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if got != 42 {
		t.Fatalf("read own write: got %d, want 42", got)
	}
	if res.Stats.BufferHits != 1 {
		t.Fatalf("BufferHits = %d, want 1", res.Stats.BufferHits)
	}
}

func TestNewestBufferedValueWins(t *testing.T) {
	m := New(Config{Policy: DrainAdversarial, Seed: 1})
	a := m.AllocWords(1)
	var got Word
	m.Spawn("w", func(th *Thread) {
		th.Store(a, 1)
		th.Store(a, 2)
		th.Store(a, 3)
		got = th.Load(a)
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if got != 3 {
		t.Fatalf("got %d, want newest buffered value 3", got)
	}
	if m.PeekWord(a) != 3 {
		t.Fatalf("final memory %d, want 3 (FIFO drain order)", m.PeekWord(a))
	}
}

func TestUnboundedTSOHidesStore(t *testing.T) {
	// Plain TSO + adversarial drains: a store with no later fence stays
	// invisible for the whole (bounded) polling window.
	m := New(Config{Delta: 0, Policy: DrainAdversarial, Seed: 7})
	a := m.AllocWords(1)
	sawNonzero := false
	m.Spawn("writer", func(th *Thread) {
		th.Store(a, 1)
		for i := 0; i < 500; i++ {
			th.Yield()
		}
	})
	m.Spawn("reader", func(th *Thread) {
		for i := 0; i < 400; i++ {
			if th.Load(a) != 0 {
				sawNonzero = true
				return
			}
		}
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if sawNonzero {
		t.Fatal("store became visible under adversarial unbounded TSO without a fence")
	}
	if m.PeekWord(a) != 1 {
		t.Fatal("final flush should have committed the store")
	}
}

func TestDeltaBoundForcesVisibility(t *testing.T) {
	// TBTSO[Δ]: the same adversarial schedule must make the store
	// visible within Δ ticks.
	const delta = 100
	m := New(Config{Delta: delta, Policy: DrainAdversarial, Seed: 7})
	a := m.AllocWords(1)
	var visibleAt uint64
	var storedAt uint64
	m.Spawn("writer", func(th *Thread) {
		storedAt = th.Clock()
		th.Store(a, 1)
		for i := 0; i < 4*delta; i++ {
			th.Yield()
		}
	})
	m.Spawn("reader", func(th *Thread) {
		for {
			if th.Load(a) != 0 {
				visibleAt = th.Clock()
				return
			}
		}
	})
	res := m.Run()
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if visibleAt == 0 {
		t.Fatal("store never became visible under TBTSO")
	}
	if visibleAt > storedAt+delta+2 {
		t.Fatalf("visible at %d, stored at %d: exceeds Δ=%d", visibleAt, storedAt, delta)
	}
	if res.Stats.MaxCommitLatency > delta {
		t.Fatalf("MaxCommitLatency %d > Δ %d", res.Stats.MaxCommitLatency, delta)
	}
	if res.Stats.Drains[CauseDelta] == 0 {
		t.Fatal("expected at least one Δ-forced drain")
	}
}

// TestForcedDrainRule pins the one forced-drain rule on both engines:
// an adversarial store that nothing else drains is forced out once it
// has been buffered max(Δ−1, 1) ticks — no earlier, whatever Δ is.
func TestForcedDrainRule(t *testing.T) {
	for _, delta := range []uint64{1, 2, 3, 4, 12, 40, 400} {
		want := max(delta-1, 1)
		wait := int(2*delta + 10)
		cfg := Config{Delta: delta, Policy: DrainAdversarial, Seed: 1}

		g := New(cfg)
		a := g.AllocWords(1)
		g.Spawn("w", func(th *Thread) {
			th.Store(a, 1)
			th.WaitUntil(th.Clock() + uint64(wait))
		})
		resG := g.Run()

		d := New(cfg)
		prog := mc.Program{Vars: 1, Threads: [][]mc.Op{{mc.St(0, 1), mc.Wait(wait)}}}
		resD := d.ExecProgram(prog, d.AllocWords(1), nil)

		for name, res := range map[string]Result{"Run": resG, "ExecProgram": resD} {
			if res.Err != nil {
				t.Fatalf("Δ=%d %s: %v", delta, name, res.Err)
			}
			if res.Stats.MaxCommitLatency != want || res.Stats.Drains[CauseDelta] != 1 {
				t.Errorf("Δ=%d %s: MaxCommitLatency %d, Δ-forced drains %d; want %d and 1",
					delta, name, res.Stats.MaxCommitLatency, res.Stats.Drains[CauseDelta], want)
			}
		}
	}
}

// TestMemoryIsAllocWords: loads outside AllocWords memory read zero,
// a store there (the null word 0 included) fails the run with
// ErrUnallocated on both engines, and SetWord there panics. Reset
// returns the memory to nothing allocated.
func TestMemoryIsAllocWords(t *testing.T) {
	g := New(Config{Policy: DrainEager})
	a := g.AllocWords(1)
	var got Word
	g.Spawn("w", func(th *Thread) {
		got = th.Load(a + 1)
		th.Store(a+1, 7)
		th.Fence()
	})
	if res := g.Run(); !errors.Is(res.Err, ErrUnallocated) || got != 0 {
		t.Fatalf("Run: err=%v load=%d, want ErrUnallocated and 0", res.Err, got)
	}

	d := New(Config{Policy: DrainEager})
	d.AllocWords(2)
	d.Reset(Config{Policy: DrainEager})
	prog := mc.Program{Vars: 2, Threads: [][]mc.Op{{mc.St(1, 7)}}}
	if res := d.ExecProgram(prog, d.AllocWords(1), nil); !errors.Is(res.Err, ErrUnallocated) {
		t.Fatalf("ExecProgram after Reset: err=%v, want ErrUnallocated", res.Err)
	}
	d.Reset(Config{Policy: DrainEager})
	d.AllocWords(1)
	null := mc.Program{Vars: 1, Threads: [][]mc.Op{{mc.St(0, 7)}}}
	if res := d.ExecProgram(null, 0, nil); !errors.Is(res.Err, ErrUnallocated) {
		t.Fatalf("ExecProgram storing to word 0: err=%v, want ErrUnallocated", res.Err)
	}

	m := New(Config{})
	b := m.AllocWords(1)
	m.SetWord(b, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("SetWord outside AllocWords memory did not panic")
		}
	}()
	m.SetWord(b+1, 5)
}

func TestFenceDrainsBuffer(t *testing.T) {
	m := New(Config{Policy: DrainAdversarial, Seed: 3})
	a := m.AllocWords(1)
	b := m.AllocWords(1)
	var observed Word
	m.Spawn("writer", func(th *Thread) {
		th.Store(a, 99)
		th.Fence()
		th.Store(b, 1) // release-style publish of the fence completion
		th.Fence()
	})
	m.Spawn("reader", func(th *Thread) {
		for th.Load(b) == 0 {
		}
		observed = th.Load(a)
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if observed != 99 {
		t.Fatalf("after fence, reader saw %d, want 99", observed)
	}
}

func TestRMWDrainsBufferAndIsAtomic(t *testing.T) {
	m := New(Config{Policy: DrainAdversarial, Seed: 3})
	a := m.AllocWords(1)
	flag := m.AllocWords(1)
	var observed Word
	m.Spawn("writer", func(th *Thread) {
		th.Store(a, 7)
		// The CAS must flush the buffered store before executing.
		if !th.CAS(flag, 0, 1) {
			t.Error("CAS on fresh word failed")
		}
	})
	m.Spawn("reader", func(th *Thread) {
		for th.Load(flag) == 0 {
		}
		observed = th.Load(a)
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if observed != 7 {
		t.Fatalf("RMW did not flush store buffer: saw %d, want 7", observed)
	}
}

func TestFetchAddCounter(t *testing.T) {
	const (
		threads = 4
		incs    = 50
	)
	m := New(Config{Policy: DrainRandom, Seed: 11})
	ctr := m.AllocWords(1)
	for i := 0; i < threads; i++ {
		m.Spawn("inc", func(th *Thread) {
			for k := 0; k < incs; k++ {
				th.FetchAdd(ctr, 1)
			}
		})
	}
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if got := m.PeekWord(ctr); got != threads*incs {
		t.Fatalf("counter = %d, want %d", got, threads*incs)
	}
}

func TestCASSwapSemantics(t *testing.T) {
	m := New(Config{Policy: DrainEager, Seed: 2})
	a := m.AllocWords(1)
	m.SetWord(a, 5)
	var r1, r2 bool
	var old Word
	m.Spawn("t", func(th *Thread) {
		r1 = th.CAS(a, 5, 6)
		r2 = th.CAS(a, 5, 7) // must fail, value is 6
		old = th.Swap(a, 9)
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if !r1 || r2 {
		t.Fatalf("CAS results = %v,%v; want true,false", r1, r2)
	}
	if old != 6 || m.PeekWord(a) != 9 {
		t.Fatalf("swap old=%d mem=%d; want 6, 9", old, m.PeekWord(a))
	}
}

func TestClockMonotonic(t *testing.T) {
	m := New(Config{Policy: DrainRandom, Seed: 4})
	var ok = true
	m.Spawn("t", func(th *Thread) {
		prev := th.Clock()
		for i := 0; i < 100; i++ {
			c := th.Clock()
			if c < prev {
				ok = false
			}
			prev = c
		}
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if !ok {
		t.Fatal("clock went backwards")
	}
}

func TestMaxTicksAborts(t *testing.T) {
	m := New(Config{Policy: DrainRandom, Seed: 4, MaxTicks: 200})
	a := m.AllocWords(1)
	m.Spawn("spin", func(th *Thread) {
		for th.Load(a) == 0 { // never satisfied
		}
	})
	res := m.Run()
	if !errors.Is(res.Err, ErrMaxTicks) {
		t.Fatalf("err = %v, want ErrMaxTicks", res.Err)
	}
}

// TestMaxTicksAbortsBothEngines: when a Wait outlasts MaxTicks, both
// engines abort with ErrMaxTicks at the same tick, with identical Stats
// and sink event streams. One thread finishes before the abort and one
// is still waiting, so the loop's done and abort paths both run.
func TestMaxTicksAbortsBothEngines(t *testing.T) {
	const maxTicks = 60
	prog := mc.Program{Vars: 2, Regs: 2, Threads: [][]mc.Op{
		{mc.St(0, 1), mc.Wait(500), mc.St(1, 1)},
		{mc.Ld(0, 0), mc.St(1, 2), mc.RMW(0, 3, 1)},
	}}
	for _, pol := range []DrainPolicy{DrainEager, DrainRandom, DrainAdversarial} {
		cfg := Config{Delta: 4, Policy: pol, Seed: 7, MaxTicks: maxTicks}

		var direct collectSink
		cfg.Sinks = []Sink{&direct}
		d := New(cfg)
		resD := d.ExecProgram(prog, d.AllocWords(prog.Vars), nil)

		var spawned collectSink
		cfg.Sinks = []Sink{&spawned}
		g := New(cfg)
		base := g.AllocWords(prog.Vars)
		for i, ops := range prog.Threads {
			g.Spawn(fmt.Sprintf("T%d", i), func(th *Thread) {
				for _, op := range ops {
					switch op.Kind {
					case mc.OpStore:
						th.Store(base+Addr(op.Addr), Word(op.Val))
					case mc.OpLoad:
						th.Load(base + Addr(op.Addr))
					case mc.OpRMW:
						th.FetchAdd(base+Addr(op.Addr), Word(op.Val))
					case mc.OpWait:
						th.WaitUntil(th.Clock() + uint64(op.Val))
					}
				}
			})
		}
		resG := g.Run()

		for name, res := range map[string]Result{"ExecProgram": resD, "Run": resG} {
			if !errors.Is(res.Err, ErrMaxTicks) || res.Ticks != maxTicks {
				t.Fatalf("%v %s: err=%v ticks=%d, want ErrMaxTicks at %d", pol, name, res.Err, res.Ticks, maxTicks)
			}
		}
		if resD.Stats != resG.Stats {
			t.Fatalf("%v: stats differ:\n ExecProgram %+v\n Run         %+v", pol, resD.Stats, resG.Stats)
		}
		if len(direct.events) == 0 || !reflect.DeepEqual(direct, spawned) {
			t.Fatalf("%v: sink streams differ or are empty: ExecProgram %d events %v, Run %d events %v",
				pol, len(direct.events), direct.names, len(spawned.events), spawned.names)
		}
	}
}

func TestThreadPanicPropagates(t *testing.T) {
	m := New(Config{Policy: DrainRandom, Seed: 4})
	m.Spawn("boom", func(th *Thread) {
		th.Yield()
		panic("kaboom")
	})
	m.Spawn("spin", func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Yield()
		}
	})
	res := m.Run()
	if res.Err == nil {
		t.Fatal("expected error from panicking thread")
	}
}

func TestDeterministicTraces(t *testing.T) {
	run := func() []Event {
		rec := &Recorder{}
		m := New(Config{Policy: DrainRandom, Seed: 99, Sinks: []Sink{rec}})
		a := m.AllocWords(2)
		m.Spawn("w0", func(th *Thread) {
			th.Store(a, 1)
			th.Fence()
			_ = th.Load(a + 1)
		})
		m.Spawn("w1", func(th *Thread) {
			th.Store(a+1, 1)
			th.Fence()
			_ = th.Load(a)
		})
		res := m.Run()
		if res.Err != nil {
			t.Fatalf("run: %v", res.Err)
		}
		return rec.Events
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

// sbOutcome runs the classic store-buffering litmus test and reports
// what each thread read.
func sbOutcome(seed int64, policy DrainPolicy, delta uint64, fenced bool) (r0, r1 Word) {
	m := New(Config{Delta: delta, Policy: policy, Seed: seed})
	x := m.AllocWords(1)
	y := m.AllocWords(1)
	m.Spawn("T0", func(th *Thread) {
		th.Store(x, 1)
		if fenced {
			th.Fence()
		}
		r0 = th.Load(y)
	})
	m.Spawn("T1", func(th *Thread) {
		th.Store(y, 1)
		if fenced {
			th.Fence()
		}
		r1 = th.Load(x)
	})
	m.Run()
	return
}

func TestSBLitmusFencedNeverBothZero(t *testing.T) {
	// The flag principle: with fences, at least one thread must see the
	// other's store — for every seed and policy.
	for _, p := range []DrainPolicy{DrainEager, DrainRandom, DrainAdversarial} {
		for seed := int64(0); seed < 200; seed++ {
			r0, r1 := sbOutcome(seed, p, 0, true)
			if r0 == 0 && r1 == 0 {
				t.Fatalf("policy=%v seed=%d: fenced SB observed 0/0", p, seed)
			}
		}
	}
}

func TestSBLitmusUnfencedObservesReordering(t *testing.T) {
	// Without fences under the adversarial policy, 0/0 — the TSO
	// store/load reordering — must be observable.
	r0, r1 := sbOutcome(0, DrainAdversarial, 0, false)
	if r0 != 0 || r1 != 0 {
		t.Fatalf("adversarial unfenced SB: got %d/%d, want 0/0", r0, r1)
	}
}

func TestQuickFetchAddAlwaysSumsExactly(t *testing.T) {
	f := func(seed int64, policyRaw uint8, deltaRaw uint16) bool {
		policy := DrainPolicy(int(policyRaw) % 3)
		delta := uint64(deltaRaw)%500 + 64
		m := New(Config{Delta: delta, Policy: policy, Seed: seed})
		ctr := m.AllocWords(1)
		const threads, incs = 3, 10
		for i := 0; i < threads; i++ {
			m.Spawn("inc", func(th *Thread) {
				for k := 0; k < incs; k++ {
					th.FetchAdd(ctr, 1)
				}
			})
		}
		res := m.Run()
		return res.Err == nil && m.PeekWord(ctr) == threads*incs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCommitLatencyRespectsDelta(t *testing.T) {
	f := func(seed int64, deltaRaw uint16) bool {
		delta := uint64(deltaRaw)%1000 + 64
		m := New(Config{Delta: delta, Policy: DrainAdversarial, Seed: seed})
		a := m.AllocWords(8)
		for i := 0; i < 3; i++ {
			base := a + Addr(i)
			m.Spawn("w", func(th *Thread) {
				for k := 0; k < 20; k++ {
					th.Store(base, Word(k))
					th.Yield()
					th.Yield()
				}
			})
		}
		res := m.Run()
		return res.Err == nil && res.Stats.MaxCommitLatency <= delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainPolicyText: every policy's text form is its String name and
// round-trips; an unknown name or value is an error that names it.
func TestDrainPolicyText(t *testing.T) {
	for _, p := range []DrainPolicy{DrainRandom, DrainEager, DrainAdversarial} {
		text, err := p.MarshalText()
		if err != nil || string(text) != p.String() {
			t.Fatalf("%v: MarshalText = %q, %v", p, text, err)
		}
		var back DrainPolicy
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Fatalf("%q: UnmarshalText = %v, %v", text, back, err)
		}
	}
	var p DrainPolicy
	if err := p.UnmarshalText([]byte("lazy")); err == nil || !strings.Contains(err.Error(), `"lazy"`) {
		t.Errorf("UnmarshalText(lazy): %v", err)
	}
	if _, err := DrainPolicy(7).MarshalText(); err == nil {
		t.Error("MarshalText accepted an undefined policy")
	}
}
