// Package fuzz is the differential-fuzzing subsystem: a seeded random
// program generator over the model checker's full op vocabulary, a
// driver that runs each program on BOTH implementations of TBTSO[Δ] —
// the clocked abstract machine (internal/tso, sampled executions) and
// the exhaustive checker (internal/mc, every execution) — and a
// delta-debugging shrinker that minimizes any failure into a
// litmus-sized, replayable counterexample.
//
// The invariant under test is the containment that pins the two
// implementations of the memory model to each other: every outcome the
// machine samples must be admitted by the checker's exhaustive outcome
// set at a Δ that provably covers the machine's configuration (see
// CoverDelta). The checker's two engines are additionally pinned to
// each other at the raw sweep Δ. Any violation is a bug in one of the
// two models — exactly the class of bug a single hand-written litmus
// test would miss. See docs/FUZZ.md.
package fuzz

import (
	"math/rand/v2"

	"tbtso/internal/mc"
	"tbtso/internal/workload"
)

// OpWeights is the generator's op-kind mix, in relative integer
// weights (the workload.Weighted distribution). The zero value selects
// DefaultOpWeights.
type OpWeights struct {
	Store, Load, Fence, RMW, Wait int
}

// DefaultOpWeights skews toward the store/load pairs that make memory-
// model bugs observable, with enough fences/RMWs/waits to reach the
// buffer-draining and wait-arming code paths in both implementations.
var DefaultOpWeights = OpWeights{Store: 8, Load: 8, Fence: 2, RMW: 2, Wait: 2}

func (w OpWeights) orDefault() OpWeights {
	if w == (OpWeights{}) {
		return DefaultOpWeights
	}
	return w
}

// GenConfig sizes the generator. Zero fields select defaults chosen so
// a program's full state space stays explorable in milliseconds while
// still covering 1..4 threads and every op kind.
type GenConfig struct {
	// MaxThreads bounds the thread count; programs draw 1..MaxThreads
	// skewed toward 2 (default 4).
	MaxThreads int
	// MaxOps bounds each thread's straight-line length (default 5).
	MaxOps int
	// MaxTotalOps bounds the whole program (default 10): the checker's
	// state space is exponential in total ops, and a 4×5 program would
	// blow the budget that a 2×5 program fits comfortably.
	MaxTotalOps int
	// Vars is the shared-variable count (default 3).
	Vars int
	// Regs is the per-thread register count; it also bounds how many
	// loads/RMWs a thread can hold results for (default 4).
	Regs int
	// MaxVal bounds stored values, drawn from 1..MaxVal (default 3).
	MaxVal int
	// MaxWait bounds Wait op durations, drawn from 0..MaxWait
	// transitions (default 4).
	MaxWait int
	// Weights is the op-kind mix (zero value: DefaultOpWeights).
	Weights OpWeights
}

func (c GenConfig) orDefault() GenConfig {
	if c.MaxThreads == 0 {
		c.MaxThreads = 4
	}
	if c.MaxOps == 0 {
		c.MaxOps = 5
	}
	if c.MaxTotalOps == 0 {
		c.MaxTotalOps = 10
	}
	if c.Vars == 0 {
		c.Vars = 3
	}
	if c.Regs == 0 {
		c.Regs = 4
	}
	if c.MaxVal == 0 {
		c.MaxVal = 3
	}
	if c.MaxWait == 0 {
		c.MaxWait = 4
	}
	c.Weights = c.Weights.orDefault()
	return c
}

// Gen builds the seed'th random program: deterministic per (config,
// seed), covering the checker's full op vocabulary. Thread counts skew
// toward 2 (where most memory-model bugs live), occasionally cloning a
// thread verbatim so the checker's symmetry reduction is exercised, and
// address selection reuses workload.KeyGen so the variable distribution
// matches the evaluation harness's key draws.
func Gen(cfg GenConfig, seed int64) mc.Program {
	var g generator
	return g.gen(cfg, seed)
}

// generator is Gen's reusable context: the program's two random
// streams, on PCG sources held by value and reseeded in place (O(1))
// for each program. Not safe for concurrent use; a campaign worker owns
// one.
type generator struct {
	src, addrSrc rand.PCG
	rng, addrRng *rand.Rand
}

// gen is Gen on g's sources.
func (g *generator) gen(cfg GenConfig, seed int64) mc.Program {
	cfg = cfg.orDefault()
	if g.rng == nil {
		g.rng, g.addrRng = rand.New(&g.src), rand.New(&g.addrSrc)
	}
	g.src.Seed(uint64(seed), 0)
	g.addrSrc.Seed(uint64(seed), 0x5bf03635)
	rng, addrs := g.rng, workload.NewKeyGenFrom(g.addrRng, uint64(cfg.Vars))
	kinds := workload.NewWeighted(rng,
		cfg.Weights.Store, cfg.Weights.Load, cfg.Weights.Fence, cfg.Weights.RMW, cfg.Weights.Wait)

	// 1..MaxThreads, weighted toward two threads.
	tw := make([]int, cfg.MaxThreads)
	for i := range tw {
		tw[i] = 1
	}
	if cfg.MaxThreads >= 2 {
		tw[1] = 4
	}
	if cfg.MaxThreads >= 3 {
		tw[2] = 2
	}
	nThreads := workload.NewWeighted(rng, tw...).Next() + 1

	p := mc.Program{Vars: cfg.Vars, Regs: cfg.Regs}
	total := 0
	genThread := func() []mc.Op {
		budget := cfg.MaxTotalOps - total
		if budget > cfg.MaxOps {
			budget = cfg.MaxOps
		}
		if budget < 1 {
			budget = 1
		}
		n := rng.IntN(budget) + 1
		ops := make([]mc.Op, 0, n)
		used := 0
		for k := 0; k < n; k++ {
			addr := int(addrs.Next())
			switch kinds.Next() {
			case 0:
				ops = append(ops, mc.St(addr, rng.IntN(cfg.MaxVal)+1))
			case 1:
				if used < cfg.Regs {
					ops = append(ops, mc.Ld(addr, used))
					used++
				}
			case 2:
				ops = append(ops, mc.Fence())
			case 3:
				if used < cfg.Regs {
					ops = append(ops, mc.RMW(addr, rng.IntN(cfg.MaxVal)+1, used))
					used++
				}
			case 4:
				ops = append(ops, mc.Wait(rng.IntN(cfg.MaxWait+1)))
			}
		}
		return ops
	}
	for t := 0; t < nThreads; t++ {
		if t > 0 && total >= cfg.MaxTotalOps {
			break
		}
		if t > 0 && rng.IntN(4) == 0 {
			// Clone an existing thread so identical-thread identity
			// groups (symmetry reduction) are routinely generated —
			// only when the clone fits the op budget.
			src := p.Threads[rng.IntN(len(p.Threads))]
			if total+len(src) <= cfg.MaxTotalOps {
				p.Threads = append(p.Threads, append([]mc.Op(nil), src...))
				total += len(src)
				continue
			}
		}
		ops := genThread()
		p.Threads = append(p.Threads, ops)
		total += len(ops)
	}
	return p
}
