package obs

import (
	"testing"

	"tbtso/internal/tso"
)

// runMachine drives a small two-thread machine with the given sinks
// and returns its result.
func runMachine(t *testing.T, cfg tso.Config, sinks ...tso.Sink) tso.Result {
	t.Helper()
	cfg.Sinks = sinks
	m := tso.New(cfg)
	a := m.AllocWords(4)
	m.Spawn("writer", func(th *tso.Thread) {
		for i := 0; i < 30; i++ {
			th.Store(a+tso.Addr(i%4), tso.Word(i))
			if i%10 == 9 {
				th.Fence()
			}
		}
	})
	m.Spawn("reader", func(th *tso.Thread) {
		for i := 0; i < 20; i++ {
			_ = th.Load(a + tso.Addr(i%4))
			if i%7 == 6 {
				th.CAS(a, 0, tso.Word(i))
			}
		}
	})
	res := m.Run()
	if res.Err != nil {
		t.Fatalf("machine run: %v", res.Err)
	}
	return res
}

func TestMachineMetricsMatchStats(t *testing.T) {
	reg := NewRegistry()
	mm := NewMachineMetrics(reg)
	res := runMachine(t, tso.Config{Delta: 30, Policy: tso.DrainRandom, Seed: 7}, mm)

	check := func(name string, want uint64) {
		t.Helper()
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check(MetricStores, res.Stats.Stores)
	check(MetricLoads, res.Stats.Loads)
	check(MetricRMWs, res.Stats.RMWs)
	check(MetricFences, res.Stats.Fences)
	check(MetricCommits, res.Stats.Commits)
	for c := 0; c < tso.NumDrainCauses; c++ {
		cause := tso.DrainCause(c)
		check("machine.drain."+cause.String(), res.Stats.Drains.ByCause(cause))
	}
	lat := reg.Histogram(MetricCommitLatency, CommitLatencyBuckets())
	if lat.Count() != res.Stats.Commits {
		t.Errorf("latency samples = %d, want %d", lat.Count(), res.Stats.Commits)
	}
	if uint64(lat.Max()) > res.Stats.MaxCommitLatency {
		t.Errorf("latency max %d exceeds stats max %d", lat.Max(), res.Stats.MaxCommitLatency)
	}
	occ := reg.Histogram(MetricBufOccupancy, OccupancyBuckets())
	if occ.Count() != res.Stats.Stores {
		t.Errorf("occupancy samples = %d, want one per store %d", occ.Count(), res.Stats.Stores)
	}
	if int(occ.Max()) > res.Stats.MaxBufOccupancy {
		t.Errorf("occupancy max %d exceeds stats max %d", occ.Max(), res.Stats.MaxBufOccupancy)
	}
}

// TestSinkEmitZeroAlloc asserts the machine-metrics sink allocates
// nothing per event once attached.
func TestSinkEmitZeroAlloc(t *testing.T) {
	mm := NewMachineMetrics(NewRegistry())
	mm.BeginRun([]string{"a", "b"}, 10)
	ev := tso.Event{Tick: 5, Thread: 1, Kind: tso.EvStore, Addr: 2, Val: 3}
	commit := tso.Event{Tick: 9, Thread: 1, Kind: tso.EvCommit, Addr: 2, Val: 3, Enq: 5}
	allocs := testing.AllocsPerRun(1000, func() {
		mm.Emit(ev)
		mm.Emit(commit)
	})
	if allocs != 0 {
		t.Fatalf("sink emit allocates %.1f bytes/op, want 0", allocs)
	}
}
