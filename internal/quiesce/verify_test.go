package quiesce

import (
	"strings"
	"testing"
	"time"

	"tbtso/internal/obs"
)

// latencyRun publishes one Figure 4 run at the given thread count into
// a fresh registry, p.Metrics.
func latencyRun(t *testing.T, threads int) Params {
	t.Helper()
	p := DefaultParams()
	p.Metrics = obs.NewRegistry()
	QuiescenceLatency(p, threads, 100)
	for _, m := range p.Metrics.Snapshot() {
		if m.Name == "quiesce.wait_ns" && m.Count > 0 {
			return p
		}
	}
	t.Fatalf("%d threads: no quiesce.wait_ns samples published", threads)
	return p
}

// TestVerifyCoverSyntheticHistograms drives the check with hand-made
// samples against a derived bound of exactly 1 µs (one hardware thread,
// 800 ns service time, plus the 25% margin).
func TestVerifyCoverSyntheticHistograms(t *testing.T) {
	p := DefaultParams()
	p.ServiceTime = 800 * time.Nanosecond
	if b := EstimateDelta(p, 1); b != time.Microsecond {
		t.Fatalf("derived bound %v, want 1µs", b)
	}
	// Nothing published yet: there is no wait to cover, and the check
	// must not create the histograms it reads.
	reg := obs.NewRegistry()
	if err := VerifyCover(p, reg, 1); err != nil {
		t.Errorf("empty registry flagged: %v", err)
	}
	if snap := reg.Snapshot(); len(snap) != 0 {
		t.Errorf("VerifyCover created metrics: %+v", snap)
	}
	wait := reg.Histogram("quiesce.wait_ns", obs.ExpBuckets(1, 4, 16))
	wait.Observe(400)
	wait.Observe(990)
	if err := VerifyCover(p, reg, 1); err != nil {
		t.Errorf("covered waits flagged: %v", err)
	}
	wait.Observe(1500)
	reg.Histogram("quiesce.bailout_visibility_ns", obs.ExpBuckets(1, 4, 16)).Observe(2000)
	err := VerifyCover(p, reg, 1)
	if err == nil {
		t.Fatal("uncovered wait and visibility not flagged")
	}
	for _, name := range []string{"quiesce.wait_ns", "quiesce.bailout_visibility_ns"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %s: %v", name, err)
		}
	}
}

func TestVerifyCoverAfterLatencyRuns(t *testing.T) {
	for _, threads := range []int{1, 8, 80} {
		p := latencyRun(t, threads)
		if err := VerifyCover(p, p.Metrics, threads); err != nil {
			t.Errorf("%d threads: Δ for %d hw threads does not cover the waits: %v", threads, threads, err)
		}
	}
}

func TestVerifyCoverFlagsUndersizedBound(t *testing.T) {
	// 80 serialized quiescers wait ≈400 µs; the Δ derived for a single
	// hardware thread (6.25 µs) cannot cover that.
	p := latencyRun(t, 80)
	err := VerifyCover(p, p.Metrics, 1)
	if err == nil {
		t.Fatal("Δ for 1 hw thread reported as covering an 80-thread latency run")
	}
	if !strings.Contains(err.Error(), "quiesce.wait_ns") {
		t.Errorf("error does not name the uncovered histogram: %v", err)
	}
}
