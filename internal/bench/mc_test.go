package bench

import (
	"fmt"
	"testing"

	"tbtso/internal/mc"
)

// TestSequentialPinnedCounts pins the reference explorer's exact state
// and outcome counts on every BENCH_mc.json cell. The state count is
// the number of distinct text keys the DFS reaches, so it changes if
// the key, the transition relation or the budget accounting does.
func TestSequentialPinnedCounts(t *testing.T) {
	want := map[string][2]int{ // "program Δ" -> {states, outcomes}
		"SB 0": {34, 4}, "SB 2": {31, 3}, "SB 4": {64, 4},
		"IRIW 0": {1231, 72}, "IRIW 2": {1697, 72}, "IRIW 4": {4833, 72},
		"FFBL(2) 2": {3274, 20},
		"Ring4 0":   {335862, 5184}, "Ring4 2": {32117, 527},
	}
	for _, mp := range mcPrograms(false) {
		for _, d := range mp.deltas {
			cell := fmt.Sprintf("%s %d", mp.name, d)
			if cell == "Ring4 0" && testing.Short() {
				continue // the one 1e5-state cell; the others cover the same code
			}
			res, err := mc.ExploreSequentialBounded(mp.p, d, mc.DefaultMaxStates)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			if got := [2]int{res.States, len(res.Outcomes)}; got != want[cell] {
				t.Errorf("%s: {states, outcomes} = %v, want %v", cell, got, want[cell])
			}
		}
	}
}
