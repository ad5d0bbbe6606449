package fuzz

import (
	"syscall"
	"testing"
	"time"
)

// BenchmarkCampaign checks the first 250 programs of the repository
// benchmark's campaign corpus (seeds 1..250) with the campaign defaults
// and reports ns/program. Both checker explorers run on every program,
// so a per-state regression in either shows here in seconds; run it
// with -cpuprofile to split the time between them (docs/PERF.md).
func BenchmarkCampaign(b *testing.B) {
	benchCampaign(b, Config{}, 250, 1)
}

// BenchmarkCampaignChunks checks the same seeds 1..250 as two
// 125-program Run calls, the repository benchmark's chunk shape: each
// call ends with its last cells draining on fewer workers than it has,
// so a chunk-end tail shows here as lower busy-cores than
// BenchmarkCampaign's.
func BenchmarkCampaignChunks(b *testing.B) {
	benchCampaign(b, Config{}, 125, 2)
}

// BenchmarkCampaignTSO is the campaign-tso workload's shape: Δ 0 only,
// 30 machine seeds per cell, over seeds 1..1,000. No covering-Δ replay
// runs, so small explorations, the oracle and machine sampling share
// the time; run it with -cpuprofile to see how.
func BenchmarkCampaignTSO(b *testing.B) {
	benchCampaign(b, Config{Deltas: []int{0}, MachSeeds: 30}, 1000, 1)
}

// benchCampaign checks seeds 1..chunks*programs as chunks Run calls of
// programs each and reports ns/program and busy-cores: the process's
// CPU time (user + system) over wall time, the cores the campaign kept
// busy.
func benchCampaign(b *testing.B, cfg Config, programs, chunks int) {
	cpu0 := processCPU(b)
	for range b.N {
		for c := range chunks {
			if rep := Run(cfg, programs, 1+int64(c*programs)); len(rep.Mismatches) != 0 {
				b.Fatalf("%d mismatches", len(rep.Mismatches))
			}
		}
	}
	cpu := processCPU(b) - cpu0
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunks*programs), "ns/program")
	b.ReportMetric(cpu.Seconds()/b.Elapsed().Seconds(), "busy-cores")
}

// processCPU is the process's user plus system CPU time so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
