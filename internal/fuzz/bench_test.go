package fuzz

import "testing"

// BenchmarkCampaign checks the first 250 programs of the repository
// benchmark's campaign corpus (seeds 1..250) with the campaign defaults
// and reports ns/program. Both checker explorers run on every program,
// so a per-state regression in either shows here in seconds; run it
// with -cpuprofile to split the time between them (docs/PERF.md).
func BenchmarkCampaign(b *testing.B) {
	const programs = 250
	for range b.N {
		if rep := Run(Config{}, programs, 1); len(rep.Mismatches) != 0 {
			b.Fatalf("%d mismatches", len(rep.Mismatches))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*programs), "ns/program")
}
