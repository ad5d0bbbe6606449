package machalg

import "tbtso/internal/tso"

// CostResult reports the machine-tick cost of list lookups under one
// protection mode.
type CostResult struct {
	Mode       HPMode
	Lookups    int
	TotalTicks uint64
	TicksPerOp float64
	Fences     uint64
	Stores     uint64
}

// LookupCost measures the machine-level fast-path cost of lookups: a
// single thread performs `lookups` random lookups over a prepopulated
// list of `listLen` nodes under the given protection mode, and the
// result reports average machine ticks per operation.
//
// The spawned reader records its result in the captured CostResult;
// that is thread-private host-side output read only after Run returns.
//
// This is the cost comparison the native benchmarks cannot make
// cleanly (Go's atomic store is itself serializing — caveat C2 in
// EXPERIMENTS.md): on the abstract machine a hazard-pointer publication
// is a plain one-tick store, so the measured gaps isolate exactly what
// the paper's Figure 6 argues — HP pays a fence per node, FFHP pays
// only the store and validation, and the no-protection (RCU-like)
// yardstick pays neither.
//
//tbtso:ignore escape single measurement thread writes its captured result struct, read only after Machine.Run returns
func LookupCost(mode HPMode, listLen, lookups int, seed int64) CostResult {
	m := tso.New(tso.Config{
		Delta:  1 << 20, // generous: no forced drains distort costs
		Policy: tso.DrainRandom,
		Seed:   seed,
		// Hardware drains store buffers in parallel with execution;
		// without this the cost model charges each buffered store a
		// thread slot and FFHP looks as expensive as fenced HP.
		ParallelDrains: true,
		MaxTicks:       400_000_000,
	})
	alloc := NewAllocator(m, listLen+4, nodeWords)
	hp := NewHPDomain(m, alloc, mode, 1, 3, listLen+8, 1<<20)
	l := NewList(m, hp, alloc)

	// Prepopulate directly in machine memory (keys 0..listLen-1).
	prev := l.head
	for k := 0; k < listLen; k++ {
		n := alloc.Alloc()
		m.SetWord(n+offKey, tso.Word(k))
		m.SetWord(n+offNext, pack(0, 0))
		m.SetWord(prev, pack(n, 0))
		prev = n + offNext
	}

	res := CostResult{Mode: mode, Lookups: lookups}
	m.Spawn("reader", func(th *tso.Thread) {
		key := tso.Word(12345)
		start := th.Clock()
		for i := 0; i < lookups; i++ {
			key = key*6364136223846793005 + 1442695040888963407
			l.Lookup(th, key%tso.Word(listLen))
		}
		res.TotalTicks = uint64(th.Clock() - start)
	})
	r := m.Run()
	if r.Err != nil {
		panic(r.Err) // misconfiguration; callers pass fixed sizes
	}
	res.TicksPerOp = float64(res.TotalTicks) / float64(lookups)
	res.Fences = r.Stats.Fences
	res.Stores = r.Stats.Stores
	return res
}
