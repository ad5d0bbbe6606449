package fuzz

import (
	"slices"
	"testing"

	"tbtso/internal/mc"
)

// TestDeltaMonotoneOnGenerated: a larger bound only admits more
// behaviour, and Δ = 0 is unbounded TSO, so the checker's outcome sets
// must nest, out(1) ⊆ out(3) ⊆ out(0), on generated programs too —
// which mix Wait, RMW and up to four threads, unlike mc's quick check
// and the litmus suite. Each set must also be closed under the
// program's symmetry: swapping the register rows of two textually
// identical threads in an outcome gives an outcome of the same set.
// Each exploration runs under the campaign's state budget; a truncated
// one fails the test instead of weakening it.
func TestDeltaMonotoneOnGenerated(t *testing.T) {
	cfg := Config{}.orDefault()
	var x mc.Explorer
	for seed := int64(1); seed <= 200; seed++ {
		p := Gen(GenConfig{}, seed)
		var twins [][2]int
		for i := range p.Threads {
			for j := i + 1; j < len(p.Threads); j++ {
				if slices.Equal(p.Threads[i], p.Threads[j]) {
					twins = append(twins, [2]int{i, j})
				}
			}
		}
		var prev map[string]bool
		prevDelta := 0
		for _, delta := range []int{1, 3, 0} {
			res, ok, err := cfg.explore(nil, &x, p, delta)
			if err != nil {
				t.Fatalf("seed %d Δ=%d: %v", seed, delta, err)
			}
			if !ok {
				t.Fatalf("seed %d Δ=%d: exploration truncated at %d states", seed, delta, cfg.MaxStates)
			}
			for o := range prev {
				if !res.Has(o) {
					t.Errorf("seed %d: outcome %q admitted at Δ=%d but not at Δ=%d", seed, o, prevDelta, delta)
				}
			}
			for _, tw := range twins {
				for o := range res.Outcomes {
					regs, ok := mc.ParseOutcome(o, len(p.Threads), p.Regs)
					if !ok {
						t.Fatalf("seed %d Δ=%d: outcome %q does not parse", seed, delta, o)
					}
					regs[tw[0]], regs[tw[1]] = regs[tw[1]], regs[tw[0]]
					if swapped := mc.FormatOutcome(regs); !res.Has(swapped) {
						t.Errorf("seed %d Δ=%d: %q admitted, but not %q with T%d and T%d swapped", seed, delta, o, swapped, tw[0], tw[1])
					}
				}
			}
			prev, prevDelta = res.Outcomes, delta
		}
	}
}
