package litmus

import "tbtso/internal/mc"

// The programs name shared variables by index (x = 0, y = 1, z = 2)
// and each thread's registers r0, r1. Forbidden and Relaxed outcomes
// list every thread's registers, as the checker renders them.

// bothZero is the two-thread store-buffering outcome in which neither
// thread saw the other's store.
const bothZero = "T0:r0=0 T1:r0=0"

// fence is the one-fence separator passed to sbProg.
var fence = []mc.Op{mc.Fence()}

// sbProg is store buffering with mid0/mid1 between each thread's store
// and load: Wx1; mid0; Ry→r0 || Wy1; mid1; Rx→r0.
func sbProg(mid0, mid1 []mc.Op) mc.Program {
	t0 := append(append([]mc.Op{mc.St(0, 1)}, mid0...), mc.Ld(1, 0))
	t1 := append(append([]mc.Op{mc.St(1, 1)}, mid1...), mc.Ld(0, 0))
	return mc.Program{Threads: [][]mc.Op{t0, t1}, Vars: 2, Regs: 1}
}

// StoreBuffering is the classic SB litmus test: each thread stores 1 to
// its own flag and loads the other's. Under sequential consistency and
// under the (symmetric, fenced) flag principle, r0=0 ∧ r1=0 is
// impossible; under TSO it is observable.
func StoreBuffering(fenced bool) Test {
	if fenced {
		return Test{
			Name:      "SB+fences",
			Doc:       "store buffering: Wx1;Ry || Wy1;Rx",
			Prog:      sbProg(fence, fence),
			Forbidden: bothZero,
		}
	}
	return Test{
		Name:    "SB",
		Doc:     "store buffering: Wx1;Ry || Wy1;Rx",
		Prog:    sbProg(nil, nil),
		Relaxed: bothZero,
	}
}

// SymmetricFlagPrinciple is the original (fenced) flag principle from
// §3, identical to SB+fences but named for the paper's presentation.
func SymmetricFlagPrinciple() Test {
	t := StoreBuffering(true)
	t.Name = "flag-principle"
	t.Doc = "symmetric flag principle: both threads fence before looking"
	return t
}

// SBOneFence is store buffering with a fence on ONLY one side: the
// relaxed 0/0 outcome remains observable, which is why the asymmetric
// flag principle needs the Δ wait and not merely one thread fencing.
func SBOneFence() Test {
	return Test{
		Name:    "SB+onefence",
		Doc:     "SB with a fence only on T1 — 0/0 still observable",
		Prog:    sbProg(nil, fence),
		Relaxed: bothZero,
	}
}

// TBTSOFlagPrinciple is the paper's §3 asymmetric flag principle: T0
// raises its flag with no fence; T1 raises its flag, fences, waits
// `wait` ticks (transitions, on the checker), then reads T0's flag. The
// forbidden outcome is both threads reading 0 ("neither saw the
// other"). It is forbidden only on a TBTSO machine whose Δ the wait
// covers; plain TSO admits it.
func TBTSOFlagPrinciple(wait int) Test {
	return Test{
		Name:      "TBTSO-flag",
		Doc:       "asymmetric flag principle (§3): fence-free T0, Δ-waiting T1",
		Prog:      sbProg(nil, []mc.Op{mc.Fence(), mc.Wait(wait)}),
		Forbidden: bothZero,
	}
}

// FlagPrincipleNoWait removes T1's Δ wait from the asymmetric flag
// principle — the program of SB+onefence. The 0/0 outcome is then
// observable even on a TBTSO machine (the reason standard hazard
// pointers need a fence).
func FlagPrincipleNoWait() Test {
	t := SBOneFence()
	t.Name = "flag-no-wait"
	t.Doc = "asymmetric flag principle without the Δ wait — 0/0 observable"
	return t
}

// RMWFlushes checks that an atomic read-modify-write acts as a fence:
// SB where each thread's "fence" is a fetch-and-add to a private
// scratch word (s0 = 2, s1 = 3). The RMW's old value lands in r0 and
// the load then overwrites it.
func RMWFlushes() Test {
	p := sbProg([]mc.Op{mc.RMW(2, 1, 0)}, []mc.Op{mc.RMW(3, 1, 0)})
	p.Vars = 4
	return Test{
		Name:      "SB+rmw",
		Doc:       "SB with atomic RMWs in place of fences — 0/0 forbidden",
		Prog:      p,
		Forbidden: bothZero,
	}
}

// SB3 is a three-thread store-buffering variant: each thread stores to
// its own variable and reads its neighbor's. All-zero requires every
// store to be buffered past every read — legal on TSO, gone under a
// tight bound.
func SB3() Test {
	return Test{
		Name: "SB3",
		Doc:  "three-thread store buffering ring — 0/0/0 observable on TSO",
		Prog: mc.Program{Vars: 3, Regs: 1, Threads: [][]mc.Op{
			{mc.St(0, 1), mc.Ld(1, 0)},
			{mc.St(1, 1), mc.Ld(2, 0)},
			{mc.St(2, 1), mc.Ld(0, 0)},
		}},
		Relaxed: "T0:r0=0 T1:r0=0 T2:r0=0",
	}
}

// TwoPlusTwoW is the 2+2W litmus test: two threads write both
// variables in opposite orders, and two observers each read one
// variable twice. Seeing x go 2→1 and y go 2→1 puts each writer's
// FIRST write last at its address, which with FIFO buffers is a cycle
// (x2 < x1 < y2 < y1 < x2) — forbidden on TSO.
func TwoPlusTwoW() Test {
	return Test{
		Name: "2+2W",
		Doc:  "2+2W: Wx1;Wy2 || Wy1;Wx2 || Rx;Rx || Ry;Ry — x 2→1 with y 2→1 forbidden on TSO",
		Prog: mc.Program{Vars: 2, Regs: 2, Threads: [][]mc.Op{
			{mc.St(0, 1), mc.St(1, 2)},
			{mc.St(1, 1), mc.St(0, 2)},
			{mc.Ld(0, 0), mc.Ld(0, 1)},
			{mc.Ld(1, 0), mc.Ld(1, 1)},
		}},
		Forbidden: "T0:r0=0 T0:r1=0 T1:r0=0 T1:r1=0 T2:r0=2 T2:r1=1 T3:r0=2 T3:r1=1",
	}
}

// MessagePassing is the MP litmus test over data = 0, flag = 1. TSO
// does not reorder stores with stores or loads with loads, so reading
// flag=1 then data=0 is forbidden even without fences — on TSO and
// TBTSO alike.
func MessagePassing() Test {
	return Test{
		Name: "MP",
		Doc:  "message passing: Wd1;Wf1 || Rf;Rd — f=1,d=0 forbidden on TSO",
		Prog: mc.Program{Vars: 2, Regs: 2, Threads: [][]mc.Op{
			{mc.St(0, 1), mc.St(1, 1)},
			{mc.Ld(1, 0), mc.Ld(0, 1)},
		}},
		Forbidden: "T0:r0=0 T0:r1=0 T1:r0=1 T1:r1=0",
	}
}

// LoadBuffering is the LB test: Rx;Wy || Ry;Wx. The outcome
// r0=1 ∧ r1=1 requires loads to be satisfied after program-order-later
// stores, which TSO (and TBTSO) forbids.
func LoadBuffering() Test {
	return Test{
		Name: "LB",
		Doc:  "load buffering: Rx;Wy1 || Ry;Wx1 — 1/1 forbidden on TSO",
		Prog: mc.Program{Vars: 2, Regs: 1, Threads: [][]mc.Op{
			{mc.Ld(0, 0), mc.St(1, 1)},
			{mc.Ld(1, 0), mc.St(0, 1)},
		}},
		Forbidden: "T0:r0=1 T1:r0=1",
	}
}

// Coherence checks per-location SC: two stores to the same variable by
// one thread must be observed in order by another thread polling it.
func Coherence() Test {
	return Test{
		Name: "CoRR",
		Doc:  "coherence: Wx1;Wx2 || Rx;Rx — 2 then 1 forbidden",
		Prog: mc.Program{Vars: 1, Regs: 2, Threads: [][]mc.Op{
			{mc.St(0, 1), mc.St(0, 2)},
			{mc.Ld(0, 0), mc.Ld(0, 1)},
		}},
		Forbidden: "T0:r0=0 T0:r1=0 T1:r0=2 T1:r1=1",
	}
}

// IRIW is independent-reads-of-independent-writes: two writers to
// different variables, two readers observing them in opposite orders.
// TSO is multi-copy atomic (a store becomes visible to all other
// threads at once — when it leaves the buffer), so the opposite-order
// outcome is forbidden.
func IRIW() Test {
	return Test{
		Name: "IRIW",
		Doc:  "independent reads of independent writes — opposite orders forbidden on TSO",
		Prog: mc.Program{Vars: 2, Regs: 2, Threads: [][]mc.Op{
			{mc.St(0, 1)},
			{mc.St(1, 1)},
			{mc.Ld(0, 0), mc.Ld(1, 1)},
			{mc.Ld(1, 0), mc.Ld(0, 1)},
		}},
		Forbidden: "T0:r0=0 T0:r1=0 T1:r0=0 T1:r1=0 T2:r0=1 T2:r1=0 T3:r0=1 T3:r1=0",
	}
}

// WRC is write-read causality: T0 writes x; T1 reads x then writes y;
// T2 reads y then x. T1 having seen x=1 while T2 sees y=1 but x=0
// would break causality, which TSO forbids.
func WRC() Test {
	return Test{
		Name: "WRC",
		Doc:  "write-read causality: Wx1 || Rx;Wy1 || Ry;Rx — x=1 at T1, y=1 ∧ x=0 at T2 forbidden on TSO",
		Prog: mc.Program{Vars: 2, Regs: 2, Threads: [][]mc.Op{
			{mc.St(0, 1)},
			{mc.Ld(0, 0), mc.St(1, 1)},
			{mc.Ld(1, 0), mc.Ld(0, 1)},
		}},
		Forbidden: "T0:r0=0 T0:r1=0 T1:r0=1 T1:r1=0 T2:r0=1 T2:r1=0",
	}
}

// All returns every litmus test in the package; TBTSO-flag waits
// `wait` ticks (see TBTSOFlagPrinciple).
func All(wait int) []Test {
	return []Test{
		StoreBuffering(false),
		StoreBuffering(true),
		SB3(),
		SBOneFence(),
		RMWFlushes(),
		TwoPlusTwoW(),
		MessagePassing(),
		LoadBuffering(),
		Coherence(),
		IRIW(),
		WRC(),
		SymmetricFlagPrinciple(),
		TBTSOFlagPrinciple(wait),
		FlagPrincipleNoWait(),
	}
}
