// Package quiesce models the hardware measurements of §6.1.2 — the
// time to force system-wide quiescence (Figure 4) and the distribution
// of store-buffering times (Figure 5) — and derives from them the
// achievable Δ bound, reproducing the paper's extrapolation.
//
// Real quiescence hardware (the mechanism of the Vash et al. patent
// [39] the paper triggers with line-crossing atomics) is not reachable
// from Go, so this package is an explicit discrete-event timing model,
// calibrated to the constants the paper reports for its quad
// Westmere-EX machine:
//
//   - forcing quiescence costs ≈5 µs and is serialized system-wide, so
//     with q concurrently quiescing threads the average latency grows
//     ≈ linearly to q·5 µs (Figure 4's trend, ~600× a normal atomic);
//   - stores normally drain in tens of nanoseconds, with
//     placement-dependent transfer costs and rare arbitration spikes;
//     99.9% of stores are visible within 10 µs (Figure 5).
//
// The shapes (linear growth; CDF knees by placement; the 99.9% ≤ 10 µs
// tail) emerge from the model's structure — serialization and rare
// unfair-arbitration delays — not from replaying the paper's curves.
package quiesce

import (
	"math/rand/v2"
	"time"

	"tbtso/internal/obs"
)

// Params calibrates the model.
type Params struct {
	// ServiceTime is the serialized cost of one quiescence request
	// (paper: ≈5 µs).
	ServiceTime time.Duration
	// NormalOp is the cost of a standard atomic to a thread-private
	// line (paper: quiescence ≈600× this).
	NormalOp time.Duration
	// Seed drives the deterministic jitter.
	Seed int64
	// Metrics, if non-nil, receives the model's distributions:
	// "quiesce.wait_ns" (per-operation quiescence wait),
	// "quiesce.visibility_ns" (store-buffering time) and
	// "quiesce.bailouts" (τ-timeout firings).
	Metrics *obs.Registry
}

// nsBuckets covers 16 ns .. ~1 min, exponentially.
func nsBuckets() []int64 { return obs.ExpBuckets(16, 2, 32) }

// DefaultParams returns the calibration matching §6.1.2.
func DefaultParams() Params {
	return Params{
		ServiceTime: 5 * time.Microsecond,
		NormalOp:    8 * time.Nanosecond,
		Seed:        1,
	}
}

// Fig4Point is one x-position of Figure 4.
type Fig4Point struct {
	Threads     int
	QuiesceAvg  time.Duration // avg latency of a quiescing operation
	QuiesceMax  time.Duration
	NormalAvg   time.Duration // avg latency of the standard atomic
	SlowdownVsN float64       // QuiesceAvg / NormalAvg
}

// QuiescenceLatency simulates `threads` threads repeatedly issuing
// quiescing operations (closed system, FIFO service, serialized
// system-wide) for rounds rounds each, and reports the average and max
// per-operation latency alongside the uncontended normal-atomic cost.
func QuiescenceLatency(p Params, threads, rounds int) Fig4Point {
	rng := rand.New(rand.NewPCG(uint64(p.Seed+int64(threads)), 0))
	jitter := func(d time.Duration) time.Duration {
		// ±10% deterministic jitter.
		f := 0.9 + 0.2*rng.Float64()
		return time.Duration(float64(d) * f)
	}

	// Closed-system FIFO: every thread has exactly one request in
	// flight; the server (the quiescence mechanism) serves one at a
	// time. issue[i] is thread i's current request issue time.
	issue := make([]int64, threads)
	queue := make([]int, threads)
	for i := range queue {
		queue[i] = i
	}
	rng.Shuffle(threads, func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })

	var waitHist *obs.Histogram
	if p.Metrics != nil {
		waitHist = p.Metrics.Histogram("quiesce.wait_ns", nsBuckets())
	}

	var serverFree int64
	var total, maxLat int64
	served := 0
	for round := 0; round < rounds; round++ {
		for _, i := range queue {
			start := issue[i]
			if serverFree > start {
				start = serverFree
			}
			done := start + int64(jitter(p.ServiceTime))
			serverFree = done
			lat := done - issue[i]
			total += lat
			if lat > maxLat {
				maxLat = lat
			}
			if waitHist != nil {
				waitHist.Observe(lat)
			}
			served++
			// Thread i re-issues immediately after a tiny gap.
			issue[i] = done + int64(jitter(p.NormalOp))
		}
	}
	avg := time.Duration(total / int64(served))
	normal := jitter(p.NormalOp)
	return Fig4Point{
		Threads:     threads,
		QuiesceAvg:  avg,
		QuiesceMax:  time.Duration(maxLat),
		NormalAvg:   normal,
		SlowdownVsN: float64(avg) / float64(normal),
	}
}

// Placement is the writer/reader thread placement of Figure 5.
type Placement int

// The placements §6.1.2 measures.
const (
	PlacementSMT Placement = iota // hardware threads of the same core
	PlacementSameSocket
	PlacementCrossSocket
)

func (pl Placement) String() string {
	switch pl {
	case PlacementSMT:
		return "same-core-SMT"
	case PlacementSameSocket:
		return "same-socket"
	case PlacementCrossSocket:
		return "cross-socket"
	default:
		return "unknown"
	}
}

// Load is the background-load condition of the Figure 5 runs.
type Load int

// The background conditions.
const (
	LoadIdle   Load = iota
	LoadStream      // memory-intensive STREAM-like background traffic
)

func (l Load) String() string {
	if l == LoadStream {
		return "stream-background"
	}
	return "idle"
}

// transferCost is the reader's cost to pull the line, by placement.
func transferCost(pl Placement) time.Duration {
	switch pl {
	case PlacementSMT:
		return 15 * time.Nanosecond
	case PlacementSameSocket:
		return 60 * time.Nanosecond
	default:
		return 180 * time.Nanosecond
	}
}

// visibilitySampler returns a deterministic stream of modeled
// store-buffering times for one placement and load: drain delay
// (exponential, tens of ns) + line transfer (by placement) + rare
// arbitration spikes whose probability rises under background load +
// an even rarer near-starvation outlier. The seed derives from p.Seed,
// pl and load only, so every caller with the same arguments draws the
// same samples.
func visibilitySampler(p Params, pl Placement, load Load) func() time.Duration {
	rng := rand.New(rand.NewPCG(uint64(p.Seed^int64(pl)<<8^int64(load)<<16), 0))
	spikeProb := 0.0005
	maxSpike := 8 * time.Microsecond
	if load == LoadStream {
		spikeProb = 0.003
		maxSpike = 9500 * time.Nanosecond
	}
	transfer := transferCost(pl)
	return func() time.Duration {
		drain := time.Duration(rng.ExpFloat64() * 40 * float64(time.Nanosecond))
		lat := drain + transfer
		if rng.Float64() < spikeProb {
			// Unfair arbitration holds the store in the buffer: the
			// line-fill-buffer / port competition of §6.1.1.
			lat += time.Duration(rng.Float64() * float64(maxSpike))
		}
		if rng.Float64() < 2e-6 {
			// The once-in-ten-billion near-starvation event: the kind
			// of outlier the proposed τ timeout would bail out.
			lat += time.Duration(50+50*rng.Float64()) * time.Microsecond
		}
		return lat
	}
}

// StoreVisibilityCDF samples the modeled store-buffering time — the
// delay between a store's execution and a remote reader observing it
// (see visibilitySampler) — and returns a histogram of the nanosecond
// samples over nsBuckets.
func StoreVisibilityCDF(p Params, pl Placement, load Load, samples int) *obs.Histogram {
	next := visibilitySampler(p, pl, load)
	h := obs.NewHistogram(nsBuckets())
	var visHist *obs.Histogram
	if p.Metrics != nil {
		visHist = p.Metrics.Histogram("quiesce.visibility_ns", nsBuckets())
	}
	for i := 0; i < samples; i++ {
		lat := int64(next())
		h.Observe(lat)
		if visHist != nil {
			visHist.Observe(lat)
		}
	}
	return h
}

// EstimateDelta reproduces the paper's extrapolation: quiescence
// forcing is serialized, so the worst case for a machine with hwThreads
// hardware threads is hwThreads × ServiceTime; a 25% safety margin
// gives the Δ the paper proposes (80 × 5 µs = 400 µs → 500 µs).
func EstimateDelta(p Params, hwThreads int) time.Duration {
	worst := time.Duration(hwThreads) * p.ServiceTime
	return worst + worst/4
}

// EstimateTimeout picks the τ after which a buffered store forces
// quiescence: the modeled 99.9th percentile of store visibility,
// rounded up — "a timeout that expires rarely but does not make the Δ
// bound exceedingly large" (§6.1.2; the paper estimates 10 µs).
func EstimateTimeout(p Params) time.Duration {
	h := StoreVisibilityCDF(p, PlacementCrossSocket, LoadStream, 2_000_000)
	q := h.Quantile(0.999)
	// Round up to the next microsecond.
	us := (q + 999) / 1000
	return time.Duration(us) * time.Microsecond
}
