package bench

import (
	"fmt"
	"testing"

	"tbtso/internal/fuzz"
	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

// The clocked machine's two execution engines and the parallel
// campaign driver, for benchstat use (make sim-bench runs each once):
//
//	go test -bench 'BenchmarkEngine|BenchmarkCampaignWorkers' -count 10 ./internal/bench | benchstat -
//
// BenchmarkEngineDirect vs BenchmarkEngineGoroutine is the engine
// speedup; both run the same fuzz.Gen corpus under the same
// (Δ, policy, seed) cells, so ns/op is directly comparable.

// simCorpus is the workload the engine benches run: a deterministic
// slice of the fuzz generator's program distribution (the same
// litmus-scale shapes campaigns sample).
func simCorpus(n int) []mc.Program {
	ps := make([]mc.Program, n)
	for i := range ps {
		ps[i] = fuzz.Gen(fuzz.GenConfig{}, int64(i+1))
	}
	return ps
}

func benchCorpus() []fuzz.MachineRun {
	runs := make([]fuzz.MachineRun, 0, 3)
	for i, c := range []struct {
		delta  uint64
		policy tso.DrainPolicy
	}{
		{0, tso.DrainEager},
		{4, tso.DrainRandom},
		{4, tso.DrainAdversarial},
	} {
		runs = append(runs, fuzz.MachineRun{Delta: c.delta, Policy: c.policy, Seed: int64(i + 1)})
	}
	return runs
}

func BenchmarkEngineDirect(b *testing.B) {
	corpus := simCorpus(24)
	s := fuzz.NewSampler()
	for _, run := range benchCorpus() {
		b.Run(fmt.Sprintf("delta=%d/policy=%v", run.Delta, run.Policy), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := corpus[i%len(corpus)]
				run.Seed = int64(i)
				if _, _, err := s.Sample(p, run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineGoroutine(b *testing.B) {
	corpus := simCorpus(24)
	for _, run := range benchCorpus() {
		b.Run(fmt.Sprintf("delta=%d/policy=%v", run.Delta, run.Policy), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := corpus[i%len(corpus)]
				run.Seed = int64(i)
				if _, _, err := fuzz.RunOnMachineGoroutine(p, run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaignWorkers measures the parallel differential campaign
// (checker explorations + machine sampling) at fixed worker counts; on
// a multi-core machine runs/s should scale near-linearly until the
// core count. One iteration is a whole 8-program batch.
func BenchmarkCampaignWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := fuzz.Config{Workers: workers}
			for i := 0; i < b.N; i++ {
				rep := fuzz.Run(cfg, 8, int64(1+8*i))
				if len(rep.Mismatches) != 0 {
					b.Fatalf("campaign found mismatches: %v", rep.Mismatches)
				}
			}
		})
	}
}
