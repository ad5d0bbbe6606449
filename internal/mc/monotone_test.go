package mc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomProgram builds a small two-thread straight-line program.
func randomProgram(seed int64) Program {
	rng := rand.New(rand.NewSource(seed))
	p := Program{Vars: 2, Regs: 3}
	for th := 0; th < 2; th++ {
		n := rng.Intn(3) + 2
		var ops []Op
		regs := 0
		for k := 0; k < n; k++ {
			addr := rng.Intn(2)
			switch rng.Intn(4) {
			case 0, 1:
				ops = append(ops, St(addr, rng.Intn(2)+1))
			case 2:
				if regs < 3 {
					ops = append(ops, Ld(addr, regs))
					regs++
				}
			default:
				ops = append(ops, Fence())
			}
		}
		p.Threads = append(p.Threads, ops)
	}
	return p
}

// TestQuickDeltaMonotonicity: tightening the bound can only REMOVE
// behaviours — outcomes(TBTSO[Δ1]) ⊆ outcomes(TBTSO[Δ2]) ⊆ outcomes(TSO)
// for Δ1 ≤ Δ2. This is the semantic core of "TBTSO strengthens TSO"
// (§2), checked exhaustively on random programs.
func TestQuickDeltaMonotonicity(t *testing.T) {
	subset := func(a, b Result) bool {
		for o := range a.Outcomes {
			if !b.Outcomes[o] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		p := randomProgram(seed)
		tight := Explore(p, 2)
		loose := Explore(p, 8)
		unbounded := Explore(p, 0)
		return subset(tight, loose) && subset(loose, unbounded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSCOutcomeAlwaysPresent: the sequentially consistent
// executions (drain immediately after every store) are a subset of
// every model, so an interleaving where each store commits before the
// next action must be among the outcomes even at the tightest bound.
func TestQuickSCOutcomeAlwaysPresent(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProgram(seed)
		res := Explore(p, 1) // Δ=1: effectively SC w.r.t. store/load order
		// Compute one legal SC outcome: run the program thread 0 fully,
		// then thread 1, applying stores immediately.
		mem := make([]int, p.Vars)
		regs := make([][]int, len(p.Threads))
		for i, ops := range p.Threads {
			regs[i] = make([]int, p.Regs)
			for _, op := range ops {
				switch op.Kind {
				case OpStore:
					mem[op.Addr] = op.Val
				case OpLoad:
					regs[i][op.Reg] = mem[op.Addr]
				}
			}
		}
		key := FormatOutcome(regs)
		return res.Has(key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
