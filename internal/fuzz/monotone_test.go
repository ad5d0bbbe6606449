package fuzz

import "testing"

// TestDeltaMonotoneOnGenerated: a larger bound only admits more
// behaviour, and Δ = 0 is unbounded TSO, so the checker's outcome sets
// must nest, out(1) ⊆ out(3) ⊆ out(0), on generated programs too —
// which mix Wait, RMW and up to four threads, unlike mc's quick check
// and the litmus suite. Each exploration runs under the campaign's
// state budget; a truncated one fails the test instead of weakening it.
func TestDeltaMonotoneOnGenerated(t *testing.T) {
	cfg := Config{}.orDefault()
	for seed := int64(1); seed <= 200; seed++ {
		p := Gen(GenConfig{}, seed)
		var prev map[string]bool
		prevDelta := 0
		for _, delta := range []int{1, 3, 0} {
			res, ok, err := cfg.explore(nil, p, delta)
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
			prev, prevDelta = res.Outcomes, delta
		}
	}
}
