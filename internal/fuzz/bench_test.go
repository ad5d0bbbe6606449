package fuzz

import "testing"

// BenchmarkCampaign checks the first 250 programs of the repository
// benchmark's campaign corpus (seeds 1..250) with the campaign defaults
// and reports ns/program. Both checker explorers run on every program,
// so a per-state regression in either shows here in seconds; run it
// with -cpuprofile to split the time between them (docs/PERF.md).
func BenchmarkCampaign(b *testing.B) {
	benchCampaign(b, Config{}, 250)
}

// BenchmarkCampaignTSO is the campaign-tso workload's shape: Δ 0 only,
// 30 machine seeds per cell, over seeds 1..1,000. No covering-Δ replay
// runs, so small explorations, the oracle and machine sampling share
// the time; run it with -cpuprofile to see how.
func BenchmarkCampaignTSO(b *testing.B) {
	benchCampaign(b, Config{Deltas: []int{0}, MachSeeds: 30}, 1000)
}

func benchCampaign(b *testing.B, cfg Config, programs int) {
	for range b.N {
		if rep := Run(cfg, programs, 1); len(rep.Mismatches) != 0 {
			b.Fatalf("%d mismatches", len(rep.Mismatches))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*programs), "ns/program")
}
