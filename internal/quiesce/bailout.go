package quiesce

import (
	"math/rand/v2"
	"time"

	"tbtso/internal/obs"
)

// BailoutResult summarizes a simulation of the §6.1 hardware design:
// a store that stays buffered past τ forces system-wide quiescence,
// after which it propagates unopposed.
type BailoutResult struct {
	Tau          time.Duration
	Samples      int
	Bailouts     int     // stores that hit the τ timeout
	BailoutRate  float64 // fraction of stores
	MaxVisible   time.Duration
	P999         time.Duration
	DeltaBudget  time.Duration // the Δ the design promises (EstimateDelta)
	WithinBudget bool          // max <= Δ
}

// WithBailout simulates store visibility under the §6.1 mechanism: the
// raw drain-time distribution of StoreVisibilityCDF, but any store
// whose natural delay would exceed τ instead completes at
// τ + (time to force quiescence) — the serialized quiescence cost with
// however many other bailed-out stores are in line (modeled at the
// configured contention level q, worst case q = hwThreads).
//
// The headline property of the design falls out: visibility is bounded
// by τ + q·ServiceTime ≤ Δ even though the underlying distribution has
// an unbounded tail, and the timeout fires rarely enough (the paper
// wants "a timeout that expires rarely") that the common case is
// untouched.
func WithBailout(p Params, pl Placement, load Load, samples int, tau time.Duration, contenders, hwThreads int) BailoutResult {
	rng := rand.New(rand.NewPCG(uint64(p.Seed^0xb417), 0))
	h := obs.NewHistogram(nsBuckets())
	res := BailoutResult{Tau: tau, Samples: samples, DeltaBudget: EstimateDelta(p, hwThreads)}
	var bailouts *obs.Counter
	var visHist *obs.Histogram
	if p.Metrics != nil {
		bailouts = p.Metrics.Counter("quiesce.bailouts")
		visHist = p.Metrics.Histogram("quiesce.bailout_visibility_ns", nsBuckets())
	}

	// Draw the same raw samples as StoreVisibilityCDF, applying the
	// bail-out rule per sample.
	next := visibilitySampler(p, pl, load)
	for i := 0; i < samples; i++ {
		lat := next()
		if lat > tau {
			// Bail out: quiescence is forced. The store completes at
			// τ plus the serialized quiescence cost for this store and
			// up to `contenders` concurrent bailouts.
			res.Bailouts++
			if bailouts != nil {
				bailouts.Inc()
			}
			q := 1 + rng.IntN(contenders)
			lat = tau + time.Duration(q)*p.ServiceTime
		}
		h.Observe(int64(lat))
		if visHist != nil {
			visHist.Observe(int64(lat))
		}
	}
	res.BailoutRate = float64(res.Bailouts) / float64(samples)
	res.MaxVisible = time.Duration(h.Max())
	res.P999 = time.Duration(h.Quantile(0.999))
	res.WithinBudget = res.MaxVisible <= res.DeltaBudget
	return res
}
