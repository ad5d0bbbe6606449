package mc

import (
	"math/rand"
	"reflect"
	"testing"
)

// genProgram builds a random straight-line program covering the whole
// op alphabet. Seeds 0..n are the differential corpus: some programs
// get identical threads (exercising symmetry canonicalization), some
// get waits and RMWs, thread counts vary from 1 to 3.
func genProgram(seed int64) Program {
	rng := rand.New(rand.NewSource(seed))
	vars := rng.Intn(2) + 2 // 2..3
	regs := 3
	nThreads := rng.Intn(3) + 1 // 1..3
	p := Program{Vars: vars, Regs: regs}
	genThread := func() []Op {
		n := rng.Intn(3) + 2 // 2..4 ops
		var ops []Op
		used := 0
		for k := 0; k < n; k++ {
			addr := rng.Intn(vars)
			switch rng.Intn(8) {
			case 0, 1, 2:
				ops = append(ops, St(addr, rng.Intn(3)+1))
			case 3, 4:
				if used < regs {
					ops = append(ops, Ld(addr, used))
					used++
				}
			case 5:
				ops = append(ops, Fence())
			case 6:
				if used < regs {
					ops = append(ops, RMW(addr, rng.Intn(2)+1, used))
					used++
				}
			default:
				ops = append(ops, Wait(rng.Intn(3)))
			}
		}
		return ops
	}
	first := genThread()
	p.Threads = append(p.Threads, first)
	for t := 1; t < nThreads; t++ {
		if rng.Intn(3) == 0 {
			// Clone an existing thread so identity groups are common.
			src := p.Threads[rng.Intn(len(p.Threads))]
			p.Threads = append(p.Threads, append([]Op(nil), src...))
		} else {
			p.Threads = append(p.Threads, genThread())
		}
	}
	return p
}

// TestDifferentialParallelMatchesSequential is the byte-identical
// oracle comparison the parallel engine's soundness rests on: over 220
// seeded random programs and several Δ, every engine configuration —
// reductions on, reductions off, symmetry off, single- and multi-worker
// — must produce exactly the reference explorer's outcome set.
func TestDifferentialParallelMatchesSequential(t *testing.T) {
	const seeds = 220
	deltas := []int{0, 1, 3}
	configs := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"workers=4", Options{Workers: 4}},
		{"no-reduction", Options{NoReduction: true}},
		{"no-symmetry", Options{NoSymmetry: true}},
		{"bare", Options{NoReduction: true, NoSymmetry: true, Workers: 2}},
	}
	for seed := int64(0); seed < seeds; seed++ {
		p := genProgram(seed)
		delta := deltas[seed%int64(len(deltas))]
		want := sequential(t, p, delta)
		for _, cfg := range configs {
			got, err := ExploreParallel(p, delta, cfg.opts)
			if err != nil {
				t.Fatalf("seed=%d Δ=%d %s: %v", seed, delta, cfg.name, err)
			}
			if !reflect.DeepEqual(got.List(), want.List()) {
				t.Fatalf("seed=%d Δ=%d %s: outcome sets diverge\n got: %v\nwant: %v",
					seed, delta, cfg.name, got.List(), want.List())
			}
		}
	}
}

// TestDifferentialCoverDelta runs the oracle comparison at cover-scale
// Δ (2T+2 and 4T+2 for T threads): large Δ, where forced drains are
// rare, unlike Δ ∈ {0,1,3}. Like the fuzz campaign's engine
// cross-check it covers every (seed, Δ) whose reference graph fits
// 20k states, which is all but a handful of the corpus; -short and the
// race detector keep every fourth seed. All 220 seeds × 2 Δ take about
// 2 s on two cores.
func TestDifferentialCoverDelta(t *testing.T) {
	stride := int64(1)
	if testing.Short() || raceEnabled {
		stride = 4
	}
	configs := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"workers=4", Options{Workers: 4}},
		{"no-symmetry", Options{NoSymmetry: true}},
	}
	checked := 0
	for seed := int64(0); seed < 220; seed += stride {
		p := genProgram(seed)
		for _, k := range []int{2, 4} {
			delta := k*len(p.Threads) + 2
			want, err := ExploreSequentialBounded(p, delta, 20_000)
			if err != nil {
				continue
			}
			checked++
			for _, cfg := range configs {
				got, err := ExploreParallel(p, delta, cfg.opts)
				if err != nil {
					t.Fatalf("seed=%d Δ=%d %s: %v", seed, delta, cfg.name, err)
				}
				if !reflect.DeepEqual(got.List(), want.List()) {
					t.Fatalf("seed=%d Δ=%d %s: outcome sets diverge\n got: %v\nwant: %v",
						seed, delta, cfg.name, got.List(), want.List())
				}
			}
		}
	}
	t.Logf("compared %d (seed, Δ) pairs", checked)
}

// TestDifferentialStateCountsShrink sanity-checks that the reductions
// only ever REMOVE states relative to the unreduced parallel engine,
// and that with everything off the canonical state count equals the
// reference explorer's — at small Δ and at the cover-scale Δ 2T+2,
// large enough that forced drains are rare.
func TestDifferentialStateCountsShrink(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		p := genProgram(seed)
		delta := int(seed % 3)
		if seed >= 40 {
			delta = 2*len(p.Threads) + 2
		}
		ref := sequential(t, p, delta)
		bare, err := ExploreParallel(p, delta, Options{NoReduction: true, NoSymmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		if bare.States != ref.States {
			t.Fatalf("seed=%d Δ=%d: bare parallel states %d != reference %d",
				seed, delta, bare.States, ref.States)
		}
		red, err := ExploreParallel(p, delta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if red.States > bare.States {
			t.Fatalf("seed=%d Δ=%d: reduced states %d > unreduced %d",
				seed, delta, red.States, bare.States)
		}
	}
}
