package tso

import (
	"flag"
	"fmt"
	"testing"
)

var stallPinGen = flag.Bool("stallpin.gen", false, "print the stall-pin golden tuples instead of checking them")

// stallPinProgram is a small schedule-sensitive workload: two threads
// race stores and loads over three words while a third fences in the
// middle, under StallProb > 0 so the scheduler's stall draws are in the
// RNG stream alongside the permutation and drain-coin draws.
func stallPinProgram(seed int64) (Result, [4]Word) {
	m := New(Config{Delta: 4, DrainMargin: 1, Policy: DrainRandom, Seed: seed, StallProb: 0.3})
	base := m.AllocWords(3)
	var got [4]Word
	m.Spawn("w", func(t *Thread) {
		t.Store(base, 1)
		t.Store(base+1, 2)
		got[0] = t.Load(base + 2)
		t.Store(base+2, 3)
		got[1] = t.Load(base)
	})
	m.Spawn("r", func(t *Thread) {
		t.Store(base+2, 9)
		got[2] = t.Load(base + 1)
		t.Fence()
		got[3] = t.Load(base + 2)
		t.FetchAdd(base, 10)
	})
	res := m.Run()
	return res, got
}

// TestStallSeedStreamPinned pins the (seed → schedule) mapping for runs
// that consume stall draws: the golden tuples were captured on the
// math/rand/v2 PCG stream by TestStallPinGenerate. StallProb > 0 keeps
// every per-candidate Float64 draw in the stream (see docs/PERF.md), so
// a refactor that adds, drops, or reorders draws in that configuration
// fails here.
func TestStallSeedStreamPinned(t *testing.T) {
	golden := []struct {
		seed  int64
		ticks uint64
		regs  [4]Word
	}{
		{1, 15, [4]Word{9, 1, 0, 3}},
		{2, 9, [4]Word{9, 11, 2, 3}},
		{3, 12, [4]Word{9, 11, 0, 9}},
		{4, 9, [4]Word{9, 11, 0, 9}},
		{5, 10, [4]Word{9, 11, 0, 9}},
	}
	for _, g := range golden {
		res, got := stallPinProgram(g.seed)
		if res.Err != nil {
			t.Fatalf("seed %d: %v", g.seed, res.Err)
		}
		if res.Ticks != g.ticks || got != g.regs {
			t.Errorf("seed %d: ticks=%d regs=%v, pinned ticks=%d regs=%v",
				g.seed, res.Ticks, got, g.ticks, g.regs)
		}
	}
}

// TestStallPinGenerate prints the golden tuples; see rngpin_test.go in
// internal/fuzz for when regenerating is legitimate.
func TestStallPinGenerate(t *testing.T) {
	if !*stallPinGen {
		t.Skip("pass -stallpin.gen to print the golden tuples")
	}
	for seed := int64(1); seed <= 5; seed++ {
		res, got := stallPinProgram(seed)
		fmt.Printf("{%d, %d, [4]Word{%d, %d, %d, %d}},\n", seed, res.Ticks, got[0], got[1], got[2], got[3])
	}
}
