package quiesce

import (
	"testing"

	"tbtso/internal/obs"
)

// latencyRun publishes one Figure 4 run at the given thread count into
// a fresh registry, p.Metrics.
func latencyRun(t *testing.T, threads int) Params {
	t.Helper()
	p := DefaultParams()
	p.Metrics = obs.NewRegistry()
	QuiescenceLatency(p, threads, 100)
	if h, ok := p.Metrics.LookupHistogram("quiesce.wait_ns"); !ok || h.Count() == 0 {
		t.Fatalf("%d threads: no quiesce.wait_ns samples published", threads)
	}
	return p
}

func TestVerifyCoverAfterLatencyRuns(t *testing.T) {
	for _, threads := range []int{1, 8, 80} {
		p := latencyRun(t, threads)
		if v := VerifyCover(p, p.Metrics, threads); v != nil {
			t.Errorf("%d threads: Δ for %d hw threads does not cover the waits: %v", threads, threads, v)
		}
	}
}

func TestVerifyCoverFlagsUndersizedBound(t *testing.T) {
	// 80 serialized quiescers wait ≈400 µs; the Δ derived for a single
	// hardware thread (6.25 µs) cannot cover that.
	p := latencyRun(t, 80)
	if v := VerifyCover(p, p.Metrics, 1); len(v) == 0 {
		t.Fatal("Δ for 1 hw thread reported as covering an 80-thread latency run")
	}
}
