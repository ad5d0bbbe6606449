package mc

import (
	"fmt"
	"testing"
)

// Benchmark programs, smallest to largest. sb (mc_test.go) is the
// 2-thread store-buffering litmus; iriwProg is independent-reads-of-
// independent-writes with double stores; ringProg(n) is an n-thread
// store ring (each thread stores twice to its own variable, then reads
// its neighbours) whose state space grows combinatorially — ringProg(4)
// at Δ=0 is ~3.4e5 reference states, the ≥1e5 scale BENCH_mc.json
// tracks.
func iriwProg() Program {
	return Program{
		Threads: [][]Op{
			{St(0, 1), St(0, 2)},
			{St(1, 1), St(1, 2)},
			{Ld(0, 0), Ld(1, 1)},
			{Ld(1, 0), Ld(0, 1)},
		},
		Vars: 2, Regs: 2,
	}
}

func ringProg(n int) Program {
	var th [][]Op
	for i := 0; i < n; i++ {
		th = append(th, []Op{St(i, 1), St(i, 2), Ld((i+1)%n, 0), Ld((i+n-1)%n, 1)})
	}
	return Program{Threads: th, Vars: n, Regs: 2}
}

type benchCase struct {
	name string
	p    Program
}

func benchCases(includeBig bool) []benchCase {
	cs := []benchCase{
		{"SB", sb(false)},
		{"IRIW", iriwProg()},
		{"Ring3", ringProg(3)},
	}
	if includeBig {
		cs = append(cs, benchCase{"Ring4", ringProg(4)})
	}
	return cs
}

func benchExplore(b *testing.B, run func(p Program, delta int) Result) {
	for _, c := range benchCases(false) {
		for _, delta := range []int{0, 2, 4} {
			b.Run(fmt.Sprintf("%s/delta=%d", c.name, delta), func(b *testing.B) {
				b.ReportAllocs()
				var states int
				for i := 0; i < b.N; i++ {
					states = run(c.p, delta).States
				}
				b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
			})
		}
	}
}

// BenchmarkExploreSequential is the reference explorer — the perf
// baseline every optimization PR is measured against.
func BenchmarkExploreSequential(b *testing.B) {
	benchExplore(b, func(p Program, delta int) Result { return sequential(b, p, delta) })
}

// BenchmarkExploreParallel is the production engine with all
// reductions.
func BenchmarkExploreParallel(b *testing.B) {
	benchExplore(b, func(p Program, delta int) Result {
		res, err := ExploreParallel(p, delta, Options{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	})
}

// BenchmarkExploreParallelNoPOR isolates the encoding + frontier wins
// from the reduction wins.
func BenchmarkExploreParallelNoPOR(b *testing.B) {
	benchExplore(b, func(p Program, delta int) Result {
		res, err := ExploreParallel(p, delta, Options{NoReduction: true, NoSymmetry: true})
		if err != nil {
			b.Fatal(err)
		}
		return res
	})
}

// BenchmarkExploreParallelRing4 is the headline ≥1e5-state workload
// (sequential reference: ~3.4e5 states, seconds; parallel: sub-second).
// Kept out of the Δ-sweep so `make mc-bench`'s -benchtime=1x smoke run
// stays fast.
func BenchmarkExploreParallelRing4(b *testing.B) {
	p := ringProg(4)
	b.ReportAllocs()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := ExploreParallel(p, 0, Options{})
		if err != nil {
			b.Fatal(err)
		}
		states = res.States
	}
	b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
}
