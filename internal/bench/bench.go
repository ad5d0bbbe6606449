// Package bench is the experiment harness: one entry point per figure
// of the paper's evaluation, shared by the tbtso-bench CLI and the
// testing.B benchmarks at the repository root. Each function runs the
// experiment and returns a report.Table whose rows mirror the series
// the paper plots. EXPERIMENTS.md records the paper-vs-measured
// comparison for every figure.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tbtso/internal/machalg"
	"tbtso/internal/obs"
	"tbtso/internal/ostick"
	"tbtso/internal/quiesce"
	"tbtso/internal/report"
	"tbtso/internal/vclock"
)

// Options sizes the experiments. Zero values select defaults; Quick
// shrinks everything for CI-scale runs.
type Options struct {
	// Duration is the measurement time per cell (paper: 10 s runs).
	Duration time.Duration
	// Threads is the maximum worker count (paper: 80 hardware threads).
	Threads int
	// Buckets is the hash-table bucket count (paper: 1024).
	Buckets int
	// Runs is how many repetitions to take the median of (paper: 10).
	Runs int
	// DeltaHW is the TBTSO hardware bound (paper: 0.5 ms).
	DeltaHW time.Duration
	// TickPeriod is the adapted variant's timer period (paper: 4 ms).
	TickPeriod time.Duration
	// Quick selects CI-scale sizes.
	Quick bool
	// MCMaxStates bounds each model-checker exploration in the
	// `-figure mc` table (0 = mc.DefaultMaxStates). Deliberately low
	// budgets truncate rows instead of aborting the table: the typed
	// *mc.TruncatedError carries the partial result, which is rendered
	// with a "(truncated)" marker.
	MCMaxStates int
	// Metrics, if non-nil, receives each run's counters and
	// distributions: the quiescence model's histograms, SMR scheme
	// counters ("smr.<name>.*") and biased-lock counters
	// ("lock.<name>.*"). Totals accumulate across cells.
	Metrics *obs.Registry
	// Context, when non-nil, cancels the figure mid-flight: drivers
	// check it between cells and return the partial table (completed
	// rows only, marked with an INTERRUPTED note) instead of running
	// to completion. nil means run to completion.
	Context context.Context
}

// interrupted reports whether the figure's context has been cancelled.
// Drivers call it at cell boundaries — a cell in flight always
// finishes, so every emitted row is a real measurement.
func (o Options) interrupted() bool {
	return o.Context != nil && o.Context.Err() != nil
}

// markInterrupted stamps a partially-built table when the figure was
// cut short, so a truncated document can never be mistaken for a
// complete baseline.
func (o Options) markInterrupted(t *report.Table) *report.Table {
	if o.interrupted() {
		t.Interrupted = true
		t.AddNote("INTERRUPTED — figure cancelled mid-flight; rows below the last completed cell are missing")
	}
	return t
}

// Defaults fills zero fields.
func (o Options) Defaults() Options {
	if o.Duration == 0 {
		o.Duration = 400 * time.Millisecond
		if o.Quick {
			o.Duration = 80 * time.Millisecond
		}
	}
	if o.Threads == 0 {
		// At least 4 workers so the ReadWrite mix has its ¾/¼ split
		// even on small machines; Go multiplexes them onto the
		// available cores.
		o.Threads = runtime.GOMAXPROCS(0)
		if o.Threads < 4 {
			o.Threads = 4
		}
	}
	if o.Buckets == 0 {
		o.Buckets = 1024
		if o.Quick {
			o.Buckets = 128
		}
	}
	if o.Runs == 0 {
		o.Runs = 3
		if o.Quick {
			o.Runs = 1
		}
	}
	if o.DeltaHW == 0 {
		o.DeltaHW = vclock.HardwareDelta
	}
	if o.TickPeriod == 0 {
		o.TickPeriod = vclock.AdaptedDelta
	}
	return o
}

// newBoard starts a §6.2 time board for the adapted variants.
func (o Options) newBoard() *ostick.Board {
	return ostick.NewBoard(o.Threads, o.TickPeriod)
}

// Figure4 regenerates the quiescence-latency experiment: average time
// for a thread to force system-wide quiescence as the number of
// concurrently quiescing threads grows, against the cost of a normal
// atomic operation.
func Figure4(o Options) *report.Table {
	o = o.Defaults()
	p := quiesce.DefaultParams()
	p.Metrics = o.Metrics
	t := report.NewTable(
		"Figure 4 — time to reach system-wide quiescence vs quiescing threads (timing model)",
		"threads", "quiesce avg", "quiesce max", "normal atomic", "slowdown")
	counts := []int{1, 2, 4, 8, 16, 32, 48, 64, 80}
	rounds := 400
	if o.Quick {
		rounds = 100
	}
	for _, n := range counts {
		if o.interrupted() {
			break
		}
		pt := quiesce.QuiescenceLatency(p, n, rounds)
		t.AddRow(n, pt.QuiesceAvg, pt.QuiesceMax, pt.NormalOp, fmt.Sprintf("%.0f×", pt.SlowdownVsN))
	}
	t.AddNote("paper: ≈5 µs per quiescer, ≈600× a normal op, near-linear growth to ≈400 µs at 80 threads")
	return o.markInterrupted(t)
}

// Figure5 regenerates the store-buffering-time CDF by thread placement
// and background load.
func Figure5(o Options) *report.Table {
	o = o.Defaults()
	p := quiesce.DefaultParams()
	p.Metrics = o.Metrics
	samples := 2_000_000
	if o.Quick {
		samples = 200_000
	}
	t := report.NewTable(
		"Figure 5 — store-buffering time distribution by placement (timing model)",
		"placement", "load", "p50", "p99", "p99.9", "max")
	for _, pl := range []quiesce.Placement{quiesce.PlacementSMT, quiesce.PlacementSameSocket, quiesce.PlacementCrossSocket} {
		for _, load := range []quiesce.Load{quiesce.LoadIdle, quiesce.LoadStream} {
			if o.interrupted() {
				break
			}
			h := quiesce.StoreVisibilityCDF(p, pl, load, samples)
			t.AddRow(pl, load,
				time.Duration(h.Quantile(0.5)),
				time.Duration(h.Quantile(0.99)),
				time.Duration(h.Quantile(0.999)),
				time.Duration(h.Max()))
		}
	}
	t.AddNote("paper: 99.9%% of stores visible within 10 µs across all placements")
	t.AddNote("Δ estimate from model: %v for 80 hw threads; τ ≈ %v",
		quiesce.EstimateDelta(p, 80), quiesce.EstimateTimeout(p))
	return o.markInterrupted(t)
}

// Figure5CDF returns the raw CDF points for one placement/load pair
// (for CSV export / plotting).
func Figure5CDF(pl quiesce.Placement, load quiesce.Load, samples int) []obs.CDFPoint {
	return quiesce.StoreVisibilityCDF(quiesce.DefaultParams(), pl, load, samples).CDF()
}

// MachineCost reports the abstract-machine fast-path cost comparison:
// lookup ticks/op under no-protection (the RCU-like yardstick), FFHP,
// and fenced HP, over short and long chains. On the machine a
// hazard-pointer publication is a plain one-tick store, so this is the
// side of the "FFHP ≈ RCU" comparison Go's serializing atomics cannot
// measure (EXPERIMENTS.md, caveat C2).
func MachineCost(o Options) *report.Table {
	o = o.Defaults()
	lookups := 400
	if o.Quick {
		lookups = 120
	}
	t := report.NewTable(
		fmt.Sprintf("Machine cost model — list lookup ticks/op (unit-cost abstract machine, %d lookups)", lookups),
		"L", "mode", "ticks/op", "fences", "hp stores")
	for _, listLen := range []int{4, 32} {
		for _, mode := range []machalg.HPMode{machalg.HPNone, machalg.HPFenceFree, machalg.HPFenced} {
			if o.interrupted() {
				break
			}
			r := machalg.LookupCost(mode, listLen, lookups, 1)
			t.AddRow(listLen, mode, fmt.Sprintf("%.1f", r.TicksPerOp), r.Fences, r.Stores)
		}
	}
	t.AddNote("validation loads cost a full tick here but are near-free cache hits on hardware; the machine therefore UNDERSTATES FFHP's advantage, while native Go overstates publication cost — the two bracket the paper's result")
	return o.markInterrupted(t)
}

// Bailout validates the §6.1 hardware design end to end in the timing
// model: with the τ timeout and quiescence bail-out active, store
// visibility is bounded within the promised Δ while the timeout fires
// rarely. (Not a paper figure — it is the design §6.1 argues for,
// simulated.)
func Bailout(o Options) *report.Table {
	o = o.Defaults()
	p := quiesce.DefaultParams()
	p.Metrics = o.Metrics
	tau := quiesce.EstimateTimeout(p)
	samples := 2_000_000
	if o.Quick {
		samples = 300_000
	}
	t := report.NewTable(
		fmt.Sprintf("§6.1 design — store visibility with τ=%v bail-out (timing model, 80 hw threads)", tau),
		"placement", "load", "bailout rate", "p99.9", "max visible", "Δ budget", "within Δ")
	for _, pl := range []quiesce.Placement{quiesce.PlacementSMT, quiesce.PlacementSameSocket, quiesce.PlacementCrossSocket} {
		for _, load := range []quiesce.Load{quiesce.LoadIdle, quiesce.LoadStream} {
			if o.interrupted() {
				break
			}
			r := quiesce.WithBailout(p, pl, load, samples, tau, 80, 80)
			t.AddRow(pl, load, fmt.Sprintf("%.5f%%", r.BailoutRate*100),
				r.P999, r.MaxVisible, r.DeltaBudget, r.WithinBudget)
		}
	}
	t.AddNote("the unbounded tail of Figure 5 is clipped to τ + quiescence cost — the store buffering time bound TBTSO needs")
	return o.markInterrupted(t)
}
