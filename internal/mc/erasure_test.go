package mc

import (
	"math"
	"testing"
)

// TestRemainingDecreases pins the bound age-horizon erasure rests on:
// every transition lowers remaining by at least one. It walks the full,
// unreduced state graph of every differential-corpus program with
// waits at two cover-scale Δ. Each state is expanded against a fresh
// visited set, so every successor lands on the worker's stack.
// -short and the race detector keep every fourth seed.
func TestRemainingDecreases(t *testing.T) {
	stride := int64(1)
	if testing.Short() || raceEnabled {
		stride = 4
	}
	checked := 0
	for seed := int64(0); seed < 220; seed += stride {
		p := genProgram(seed)
		if !hasWaits(p) {
			continue
		}
		probe := &engine{horizon: horizons(p, nil)}
		for _, k := range []int{2, 4} {
			delta := k*len(p.Threads) + 2
			e := &engine{}
			e.reset(p, delta, codecFor(p, delta), math.MaxInt64, 1, Options{NoReduction: true, NoSymmetry: true})
			w, c := e.workers[0], e.codec

			start := string(c.appendState(nil, newState(p)))
			seen := map[string]bool{start: true}
			todo := []string{start}
			s, succ := newState(p), newState(p)
			for len(todo) > 0 {
				key := todo[len(todo)-1]
				todo = todo[:len(todo)-1]
				e.vis.reset()
				w.stack = w.stack[:0]
				kb := []byte(key)
				w.expand(kb)
				c.decodeState(s, kb)
				r := probe.remaining(s)
				for _, nb := range w.stack {
					next := string(nb)
					c.decodeState(succ, nb)
					if rn := probe.remaining(succ); rn > r-1 {
						t.Fatalf("seed=%d Δ=%d: remaining %d -> %d across a transition\nfrom %+v\n  to %+v",
							seed, delta, r, rn, s, succ)
					}
					if !seen[next] {
						seen[next] = true
						todo = append(todo, next)
					}
				}
			}
			checked += len(seen)
		}
	}
	if checked == 0 {
		t.Fatal("no program with waits in the corpus")
	}
	t.Logf("checked the successors of %d states", checked)
}
