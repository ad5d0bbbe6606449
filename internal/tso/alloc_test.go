package tso

import (
	"testing"

	"tbtso/internal/mc"
)

// TestGoroutineEngineZeroAllocPerOp pins the goroutine engine's
// steady-state allocation behaviour: with no sinks attached, a run's
// heap allocations are a fixed per-run overhead (machine, goroutines,
// per-thread reply channels) and do NOT scale with the op count. Each
// action reuses the thread's request struct and its single-slot reply
// channel, so the per-op cost is two channel operations, zero mallocs.
func TestGoroutineEngineZeroAllocPerOp(t *testing.T) {
	perRun := func(ops int) float64 {
		return testing.AllocsPerRun(3, func() {
			m := New(Config{Delta: 4})
			a := m.AllocWords(2)
			for th := 0; th < 2; th++ {
				m.Spawn("w", func(t *Thread) {
					for i := 0; i < ops; i++ {
						t.Store(a, Word(i))
						t.Load(a + 1)
					}
					t.Fence()
				})
			}
			if res := m.Run(); res.Err != nil {
				panic(res.Err)
			}
		})
	}
	small, large := perRun(50), perRun(2000)
	// 2 threads × (2000-50) extra iterations × 2 ops each = 7800 extra
	// ops between the two sizes. Allow a little scheduler noise, but an
	// allocation per op would show up as thousands.
	if grew := large - small; grew > 50 {
		t.Fatalf("goroutine engine allocates per op: %0.f allocs at 50 ops, %0.f at 2000 (Δ=%0.f over 7800 extra ops)", small, large, grew)
	}
	t.Logf("allocs: %0.f at 50 ops/thread, %0.f at 2000 ops/thread", small, large)
}

// TestInterpSteadyStateZeroAlloc pins the direct-execution engine's
// contract: after a warm-up run sizes the machine's reusable buffers,
// a Reset+ExecProgram cycle performs ZERO heap allocations — a whole
// campaign runs on one machine without garbage.
func TestInterpSteadyStateZeroAlloc(t *testing.T) {
	prog := mc.Program{Vars: 4, Regs: 2, Threads: [][]mc.Op{
		{mc.St(1, 1), mc.Ld(2, 0), mc.RMW(3, 2, 1), mc.Fence(), mc.Wait(3), mc.St(2, 7)},
		{mc.St(2, 5), mc.Ld(1, 0), mc.St(3, 9), mc.Ld(3, 1)},
	}}
	regs := [][]int{make([]int, 2), make([]int, 2)}
	cfg := Config{Delta: 4, Policy: DrainRandom, Seed: 42}

	m := New(cfg)
	m.AllocWords(4)
	run := func() {
		m.Reset(cfg)
		base := m.AllocWords(prog.Vars)
		if res := m.ExecProgram(prog, base, regs); res.Err != nil {
			panic(res.Err)
		}
	}
	run() // warm-up: size itr, perm, store-buffer rings, dense memory

	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("interpreter steady state allocates: %v allocs per Reset+ExecProgram", allocs)
	}
}

// TestPeekWordNeverAllocated pins PeekWord's post-run safety contract
// on both engines: addresses no AllocWords call covered read as zero,
// no panic.
func TestPeekWordNeverAllocated(t *testing.T) {
	// Goroutine engine.
	m := New(Config{})
	a := m.AllocWords(1)
	m.Spawn("w", func(t *Thread) { t.Store(a, 3); t.Fence() })
	if res := m.Run(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := m.PeekWord(a); got != 3 {
		t.Fatalf("PeekWord(allocated) = %d, want 3", got)
	}
	for _, addr := range []Addr{a + 1, 1 << 20, 0} {
		if got := m.PeekWord(addr); got != 0 {
			t.Fatalf("PeekWord(%d) = %d, want 0 for never-allocated address", addr, got)
		}
	}

	// Direct-execution engine.
	m2 := New(Config{})
	a2 := m2.AllocWords(1)
	if res := m2.ExecProgram(mc.Program{Vars: 1, Threads: [][]mc.Op{{mc.St(0, 9)}}}, a2, nil); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := m2.PeekWord(a2); got != 9 {
		t.Fatalf("PeekWord(allocated) = %d, want 9", got)
	}
	for _, addr := range []Addr{a2 + 1, 1 << 20} {
		if got := m2.PeekWord(addr); got != 0 {
			t.Fatalf("interp PeekWord(%d) = %d, want 0 for never-allocated address", addr, got)
		}
	}
}
