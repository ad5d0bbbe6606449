package bench

import (
	"testing"
	"time"

	"tbtso/internal/core"
	"tbtso/internal/lock"
	"tbtso/internal/obs"
	"tbtso/internal/quiesce"
	"tbtso/internal/smr"
	"tbtso/internal/workload"
)

// counterValue finds a counter in the snapshot by name.
func counterValue(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return uint64(m.Value)
		}
	}
	t.Fatalf("metric %q not in registry", name)
	return 0
}

func TestRunTablePublishesSchemeMetrics(t *testing.T) {
	cell := TableCell{
		Kind: smr.KindFFHP, Mix: workload.ReadWrite, ChainLen: 4,
		Threads: 4, Buckets: 64,
		Duration: 40 * time.Millisecond, DeltaHW: 200 * time.Microsecond,
	}
	// An updater first inserts every key of its range and then removes
	// them, so a retire (and the exit flush's scan) is forced only once
	// the updaters together ran more updates than the universe has keys.
	// A slow scheduler (race detector, loaded box) can miss that in 40
	// ms, so the cell grows until it is met.
	universe := float64(workload.UniverseForChain(cell.ChainLen, cell.Buckets))
	var reg *obs.Registry
	var res TableRun
	var updates float64
	for try := 0; ; try++ {
		reg = obs.NewRegistry()
		cell.Metrics = reg
		res = RunTableCell(cell)
		updates = res.UpdaterRate * cell.Duration.Seconds()
		if updates > universe+0.5 || try == 4 {
			break
		}
		cell.Duration *= 2
	}
	if updates <= universe+0.5 {
		t.Skipf("%.0f updates in %v, too few to force a retire; machine too loaded to assert on counters", updates, cell.Duration)
	}
	prefix := "smr." + res.Scheme + "."
	if counterValue(t, reg, prefix+"retires") == 0 {
		t.Errorf("updates ran but %sretires is zero", prefix)
	}
	if counterValue(t, reg, prefix+"scans") == 0 {
		t.Errorf("updates ran but %sscans is zero", prefix)
	}
}

// TestRunLockPatternPublishesLockMetrics runs FFBL, with and without the
// echo, under every Figure 8 access pattern: the published bias-transfer
// counter must be nonzero, and each transfer must have been echoed out
// of its wait or waited the bound in full.
func TestRunLockPatternPublishesLockMetrics(t *testing.T) {
	for _, echo := range []bool{true, false} {
		reg := obs.NewRegistry()
		var name string
		for _, pat := range workload.Patterns() {
			var lk *lock.FFBL
			mk := func() lock.BiasedLock {
				lk = lock.NewFFBL(core.NewFixedDelta(200*time.Microsecond), echo)
				return lk
			}
			res := runLockPattern(mk, pat, 30*time.Millisecond, reg)
			name = res.Lock
			if err := lk.VerifyAccounting(); err != nil {
				t.Errorf("%s under %s: %v", name, pat.Name, err)
			}
		}
		if counterValue(t, reg, "lock."+name+".bias_transfers") == 0 {
			t.Errorf("%s: no bias transfers under any pattern; the accounting check is vacuous", name)
		}
	}
}

func TestQuiesceModelPublishesHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	p := quiesce.DefaultParams()
	p.Metrics = reg
	quiesce.QuiescenceLatency(p, 4, 50)
	quiesce.StoreVisibilityCDF(p, quiesce.PlacementSameSocket, quiesce.LoadIdle, 10_000)
	tau := 10 * time.Microsecond
	quiesce.WithBailout(p, quiesce.PlacementCrossSocket, quiesce.LoadStream, 10_000, tau, 8, 8)

	want := map[string]uint64{
		"quiesce.wait_ns":               4 * 50,
		"quiesce.visibility_ns":         10_000,
		"quiesce.bailout_visibility_ns": 10_000,
	}
	got := map[string]uint64{}
	for _, m := range reg.Snapshot() {
		if m.Kind == "histogram" {
			got[m.Name] = m.Count
		}
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s: %d samples, want %d", name, got[name], n)
		}
	}
	// The bailouts counter exists (it may legitimately be zero when no
	// sample exceeded τ, but with a stream-load tail and τ=10 µs over
	// 10k samples some usually do; assert only presence).
	counterValue(t, reg, "quiesce.bailouts")
}
