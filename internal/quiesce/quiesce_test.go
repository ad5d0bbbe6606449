package quiesce

import (
	"testing"
	"time"
)

func TestQuiescenceLatencyGrowsLinearly(t *testing.T) {
	p := DefaultParams()
	one := QuiescenceLatency(p, 1, 200)
	forty := QuiescenceLatency(p, 40, 200)
	eighty := QuiescenceLatency(p, 80, 200)
	// Single quiescer ≈ the service time.
	if one.QuiesceAvg < 4*time.Microsecond || one.QuiesceAvg > 7*time.Microsecond {
		t.Fatalf("single-thread quiescence = %v, want ≈5 µs", one.QuiesceAvg)
	}
	// Near-linear growth with thread count (paper: "grows almost
	// linearly").
	r1 := float64(forty.QuiesceAvg) / float64(one.QuiesceAvg)
	r2 := float64(eighty.QuiesceAvg) / float64(forty.QuiesceAvg)
	if r1 < 25 || r1 > 55 {
		t.Fatalf("40-thread growth ratio %v, want ≈40", r1)
	}
	if r2 < 1.6 || r2 > 2.4 {
		t.Fatalf("80/40 growth ratio %v, want ≈2", r2)
	}
	// ≈600× a normal operation for a single quiescer.
	if one.SlowdownVsN < 300 || one.SlowdownVsN > 1000 {
		t.Fatalf("slowdown vs normal = %v, want ≈600", one.SlowdownVsN)
	}
}

func TestQuiescenceDeterministic(t *testing.T) {
	p := DefaultParams()
	a := QuiescenceLatency(p, 16, 100)
	b := QuiescenceLatency(p, 16, 100)
	if a != b {
		t.Fatalf("model is not deterministic: %+v vs %+v", a, b)
	}
}

// TestSlowdownDividesByCalibratedNormalOp: Figure 4's normal-atomic
// column is the calibrated constant at every thread and round count,
// so the slowdown column moves only with the quiescence latency.
func TestSlowdownDividesByCalibratedNormalOp(t *testing.T) {
	p := DefaultParams()
	for _, threads := range []int{1, 2, 4, 32, 80} {
		for _, rounds := range []int{100, 400} {
			pt := QuiescenceLatency(p, threads, rounds)
			if pt.NormalOp != p.NormalOp || pt.SlowdownVsN != float64(pt.QuiesceAvg)/float64(p.NormalOp) {
				t.Fatalf("%d threads, %d rounds: normal %v slowdown %v, want %v and %v",
					threads, rounds, pt.NormalOp, pt.SlowdownVsN, p.NormalOp, float64(pt.QuiesceAvg)/float64(p.NormalOp))
			}
		}
	}
}

func TestStoreVisibilityTail(t *testing.T) {
	p := DefaultParams()
	for _, pl := range []Placement{PlacementSMT, PlacementSameSocket, PlacementCrossSocket} {
		for _, load := range []Load{LoadIdle, LoadStream} {
			h := StoreVisibilityCDF(p, pl, load, 500_000)
			p999 := time.Duration(h.Quantile(0.999))
			if p999 > 12*time.Microsecond {
				t.Fatalf("%v/%v: p99.9 = %v, paper reports ≤10 µs", pl, load, p999)
			}
			p50 := time.Duration(h.Quantile(0.5))
			if p50 > time.Microsecond {
				t.Fatalf("%v/%v: median %v — stores should usually drain fast", pl, load, p50)
			}
		}
	}
}

func TestPlacementOrdering(t *testing.T) {
	// Medians must order: SMT < same-socket < cross-socket.
	p := DefaultParams()
	m := func(pl Placement) int64 {
		return StoreVisibilityCDF(p, pl, LoadIdle, 200_000).Quantile(0.5)
	}
	smt, same, cross := m(PlacementSMT), m(PlacementSameSocket), m(PlacementCrossSocket)
	if !(smt <= same && same <= cross) {
		t.Fatalf("median ordering violated: %d, %d, %d", smt, same, cross)
	}
}

func TestStreamLoadThickensTail(t *testing.T) {
	p := DefaultParams()
	idle := StoreVisibilityCDF(p, PlacementCrossSocket, LoadIdle, 500_000)
	stream := StoreVisibilityCDF(p, PlacementCrossSocket, LoadStream, 500_000)
	if stream.Quantile(0.999) < idle.Quantile(0.999) {
		t.Fatalf("background load did not thicken the tail: %d vs %d",
			stream.Quantile(0.999), idle.Quantile(0.999))
	}
}

func TestEstimateDeltaMatchesPaper(t *testing.T) {
	// 80 hardware threads × 5 µs + margin ⇒ the paper's 500 µs.
	d := EstimateDelta(DefaultParams(), 80)
	if d != 500*time.Microsecond {
		t.Fatalf("EstimateDelta(80) = %v, want 500 µs", d)
	}
}

func TestEstimateTimeoutNearTenMicros(t *testing.T) {
	tau := EstimateTimeout(DefaultParams())
	if tau < 2*time.Microsecond || tau > 12*time.Microsecond {
		t.Fatalf("τ = %v, paper estimates ≈10 µs", tau)
	}
}
