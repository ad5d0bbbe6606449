// Package litmus runs litmus tests against the TBTSO abstract machine
// and the model checker: small multi-threaded programs whose sets of
// observable outcomes characterize a memory model. The package ships
// the classic x86-TSO litmus tests (store buffering, message passing,
// coherence) and the paper's flag-principle variants (§3).
//
// Each test is written once, as a checker program (mc.Program). Run
// samples it on the clocked machine's direct-execution engine across
// scheduler seeds and drain policies; mc.Explore on the same Prog
// proves which outcomes are possible at all. Outcomes on both sides use
// the checker's canonical "T0:r0=0 T1:r0=0" rendering.
package litmus

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tbtso/internal/fuzz"
	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

// Test is a litmus test: a checker program plus the outcomes that
// characterize it.
type Test struct {
	Name string
	Doc  string
	// Prog is the test's program; shared variables and registers all
	// start at zero.
	Prog mc.Program
	// Forbidden, if non-empty, is the outcome the model the test
	// targets must never produce.
	Forbidden string
	// Relaxed, if non-empty, is the outcome that demonstrates the
	// relaxed behaviour the test looks for (e.g. store/load reordering).
	Relaxed string
}

// NeedsDelta reports whether the test's program waits: its Forbidden
// outcome is then excluded only on a TBTSO machine whose Δ the wait
// covers, and plain TSO admits it.
func (t Test) NeedsDelta() bool {
	return slices.ContainsFunc(t.Prog.Threads, func(th []mc.Op) bool {
		return slices.ContainsFunc(th, func(op mc.Op) bool { return op.Kind == mc.OpWait })
	})
}

// RunConfig controls outcome exploration.
type RunConfig struct {
	// Seeds is how many scheduler seeds to try per policy.
	Seeds int
	// Policies lists the drain policies to explore; nil means all three.
	Policies []tso.DrainPolicy
	// Delta is the machine's TBTSO bound (0 = plain TSO).
	Delta uint64
	// StallProb is passed to the machine scheduler.
	StallProb float64
	// Sinks are attached to every machine run — e.g. a
	// monitor.Residency, so a whole litmus sweep runs under continuous
	// Δ-residency verification.
	Sinks []tso.Sink
}

// Report aggregates the outcomes of an exploration.
type Report struct {
	Test       string
	Total      int
	Counts     map[string]int
	ForbiddenN int // executions producing Test.Forbidden
	RelaxedN   int // executions producing Test.Relaxed
	Errs       []error
}

// ForbiddenSeen reports whether the forbidden outcome was observed.
func (r Report) ForbiddenSeen() bool { return r.ForbiddenN > 0 }

// String renders the report as a small table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d executions\n", r.Test, r.Total)
	keys := make([]string, 0, len(r.Counts))
	width := 40
	for k := range r.Counts {
		keys = append(keys, k)
		width = max(width, len(k))
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-*s %6d\n", width, k, r.Counts[k])
	}
	if r.ForbiddenSeen() {
		fmt.Fprintf(&b, "  FORBIDDEN OUTCOME SEEN in %d executions\n", r.ForbiddenN)
	}
	return b.String()
}

// OnceTraced executes a single run of the test and returns its outcome
// and the machine's execution trace, recorded by a tso.Recorder
// attached after cfg.Sinks.
func OnceTraced(t Test, cfg tso.Config) (string, []tso.Event, error) {
	rec := &tso.Recorder{}
	cfg.Sinks = append(slices.Clip(cfg.Sinks), rec)
	out, _, err := fuzz.NewSampler().Exec(t.Prog, cfg)
	return out, rec.Events, err
}

// Run explores the test across seeds and policies and aggregates the
// observed outcomes.
func Run(t Test, cfg RunConfig) Report {
	policies := cfg.Policies
	if policies == nil {
		policies = []tso.DrainPolicy{tso.DrainEager, tso.DrainRandom, tso.DrainAdversarial}
	}
	if cfg.Seeds == 0 {
		cfg.Seeds = 50
	}
	rep := Report{Test: t.Name, Counts: make(map[string]int)}
	s := fuzz.NewSampler()
	for _, p := range policies {
		for seed := 0; seed < cfg.Seeds; seed++ {
			out, _, err := s.Exec(t.Prog, tso.Config{
				Delta:     cfg.Delta,
				Policy:    p,
				Seed:      int64(seed),
				StallProb: cfg.StallProb,
				Sinks:     cfg.Sinks,
			})
			if err != nil {
				rep.Errs = append(rep.Errs, fmt.Errorf("policy=%v seed=%d: %w", p, seed, err))
				continue
			}
			rep.Total++
			rep.Counts[out]++
			if out == t.Forbidden {
				rep.ForbiddenN++
			}
			if out == t.Relaxed {
				rep.RelaxedN++
			}
		}
	}
	return rep
}
