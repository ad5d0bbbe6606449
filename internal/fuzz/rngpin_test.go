package fuzz

import (
	"flag"
	"fmt"
	"testing"

	"tbtso/internal/tso"
)

var pinGen = flag.Bool("pin.gen", false, "print the rngpin golden table instead of checking it")

// pinGolden is DrainRandom's (seed → ticks, outcome) table, captured
// on the math/rand/v2 PCG stream by TestPinGoldenGenerate. Most of its
// programs have one outcome under every schedule, so the run's tick
// count is pinned too: it moves with every drain coin. Seeds 71 (three
// threads) and 120 (four) are there for the scheduling permutation:
// with two threads every Fisher–Yates order draws alike, and on these
// two the order of its draws decides ticks and outcome.
type pinEntry struct {
	progSeed int64
	delta    uint64
	machSeed int64
	ticks    uint64
	outcome  string
}

var pinGolden = []pinEntry{
	{18, 0, 1, 5, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{18, 0, 7, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{18, 3, 1, 5, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{18, 3, 7, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{22, 0, 1, 8, "T0:r0=0 T0:r1=0 T0:r2=3 T0:r3=0 T1:r0=0 T1:r1=3 T1:r2=3 T1:r3=0"},
	{22, 0, 7, 8, "T0:r0=3 T0:r1=0 T0:r2=3 T0:r3=0 T1:r0=0 T1:r1=3 T1:r2=3 T1:r3=0"},
	{22, 3, 1, 8, "T0:r0=0 T0:r1=0 T0:r2=3 T0:r3=0 T1:r0=0 T1:r1=3 T1:r2=3 T1:r3=0"},
	{22, 3, 7, 8, "T0:r0=3 T0:r1=0 T0:r2=3 T0:r3=0 T1:r0=0 T1:r1=3 T1:r2=3 T1:r3=0"},
	{23, 0, 1, 2, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{23, 0, 7, 2, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{23, 3, 1, 2, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{23, 3, 7, 2, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{26, 0, 1, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=2 T1:r1=0 T1:r2=0 T1:r3=0"},
	{26, 0, 7, 5, "T0:r0=2 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{26, 3, 1, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=2 T1:r1=0 T1:r2=0 T1:r3=0"},
	{26, 3, 7, 5, "T0:r0=2 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{27, 0, 1, 3, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{27, 0, 7, 4, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{27, 3, 1, 4, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{27, 3, 7, 4, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{30, 0, 1, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{30, 0, 7, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{30, 3, 1, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{30, 3, 7, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{35, 0, 1, 5, "T0:r0=0 T0:r1=0 T0:r2=1 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=1 T1:r3=0"},
	{35, 0, 7, 6, "T0:r0=0 T0:r1=0 T0:r2=1 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=1 T1:r3=0"},
	{35, 3, 1, 6, "T0:r0=0 T0:r1=0 T0:r2=1 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=1 T1:r3=0"},
	{35, 3, 7, 6, "T0:r0=0 T0:r1=0 T0:r2=1 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=1 T1:r3=0"},
	{43, 0, 1, 1, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{43, 0, 7, 1, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{43, 3, 1, 1, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{43, 3, 7, 1, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{51, 0, 1, 8, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{51, 0, 7, 8, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{51, 3, 1, 8, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{51, 3, 7, 8, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{54, 0, 1, 9, "T0:r0=0 T0:r1=2 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{54, 0, 7, 9, "T0:r0=0 T0:r1=2 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{54, 3, 1, 9, "T0:r0=0 T0:r1=2 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{54, 3, 7, 9, "T0:r0=0 T0:r1=2 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{59, 0, 1, 10, "T0:r0=1 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{59, 0, 7, 10, "T0:r0=1 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{59, 3, 1, 10, "T0:r0=1 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{59, 3, 7, 10, "T0:r0=1 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{61, 0, 1, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{61, 0, 7, 7, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{61, 3, 1, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{61, 3, 7, 7, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0"},
	{71, 0, 1, 7, "T0:r0=0 T0:r1=3 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=2 T1:r2=0 T1:r3=3 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{71, 0, 7, 8, "T0:r0=2 T0:r1=3 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=2 T1:r2=0 T1:r3=3 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{71, 3, 1, 8, "T0:r0=0 T0:r1=4 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=3 T1:r2=0 T1:r3=3 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{71, 3, 7, 8, "T0:r0=2 T0:r1=4 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=3 T1:r2=0 T1:r3=3 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0"},
	{120, 0, 1, 7, "T0:r0=0 T0:r1=0 T0:r2=6 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=3 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0 T3:r0=0 T3:r1=0 T3:r2=0 T3:r3=0"},
	{120, 0, 7, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=3 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=6 T2:r3=0 T3:r0=0 T3:r1=0 T3:r2=0 T3:r3=0"},
	{120, 3, 1, 7, "T0:r0=0 T0:r1=0 T0:r2=6 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=3 T2:r3=0 T3:r0=0 T3:r1=0 T3:r2=0 T3:r3=0"},
	{120, 3, 7, 6, "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=3 T1:r3=0 T2:r0=0 T2:r1=0 T2:r2=6 T2:r3=0 T3:r0=0 T3:r1=0 T3:r2=0 T3:r3=0"},
}

// pinRun executes one DrainRandom machine sample exactly the way the
// differential driver does, so the golden table below pins the seeded
// scheduler's RNG draw stream: any change to the order or number of
// draws the machine consumes under the random drain policy shows up
// here as a changed tick count or outcome.
func pinRun(t *testing.T, progSeed int64, delta uint64, machSeed int64) (uint64, string) {
	t.Helper()
	p := Gen(GenConfig{}, progSeed)
	out, res, err := NewSampler().Sample(p, MachineRun{Delta: delta, Policy: tso.DrainRandom, Seed: machSeed})
	if err != nil {
		t.Fatalf("seed %d Δ=%d machSeed %d: %v", progSeed, delta, machSeed, err)
	}
	return res.Ticks, out
}

// TestRandomPolicySeedStreamPinned asserts that (seed → ticks, outcome)
// pairs for DrainRandom runs stay exactly as pinned: the RNG draw
// stream documented in docs/PERF.md (per tick: the per-buffer drain
// coin flips, then one scheduling permutation, then a stall draw per
// candidate when StallProb > 0) must be consumed identically by every
// scheduler change whenever the random policy is in play.
func TestRandomPolicySeedStreamPinned(t *testing.T) {
	for _, g := range pinGolden {
		ticks, got := pinRun(t, g.progSeed, g.delta, g.machSeed)
		if ticks != g.ticks || got != g.outcome {
			t.Errorf("Gen seed %d Δ=%d machSeed %d: ticks %d outcome %q, pinned ticks %d outcome %q",
				g.progSeed, g.delta, g.machSeed, ticks, got, g.ticks, g.outcome)
		}
	}
}

// TestPinGoldenGenerate regenerates the golden table source; run with
//
//	go test ./internal/fuzz -run TestPinGoldenGenerate -v -pin.gen
//
// and paste the output ONLY when an intended scheduler change is
// documented in docs/PERF.md.
func TestPinGoldenGenerate(t *testing.T) {
	if !*pinGen {
		t.Skip("pass -pin.gen to print the golden table")
	}
	for _, progSeed := range []int64{18, 22, 23, 26, 27, 30, 35, 43, 51, 54, 59, 61, 71, 120} {
		for _, delta := range []uint64{0, 3} {
			for _, machSeed := range []int64{1, 7} {
				ticks, out := pinRun(t, progSeed, delta, machSeed)
				fmt.Printf("\t{%d, %d, %d, %d, %q},\n", progSeed, delta, machSeed, ticks, out)
			}
		}
	}
}
