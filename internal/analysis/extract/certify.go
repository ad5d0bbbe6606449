package extract

import (
	"context"
	"fmt"
	"io"

	"tbtso/internal/fuzz"
	"tbtso/internal/mc"
)

// Certification semantics. "Holds" at a bound Δ means the exhaustive
// exploration of the pair's program — scaled waits instantiated as
// Wait(Δ+1), the adequate wait of the flag principle — admits NO
// outcome satisfying the forbidden property.
//
// A normal pair CERTIFIES when it holds at every swept Δ ∈ 1..MaxDelta
// AND is violated at Δ=0 (plain, unbounded TSO). The second leg is a
// non-vacuity check: the paper's fence-free algorithms are exactly the
// ones that are WRONG on plain TSO and saved by the temporal bound, so
// a pair whose property cannot be violated even with unbounded buffers
// was not worth a certificate — the annotation is probably misdrawn
// (e.g. a fence crept into the fast path), and the tool says so rather
// than printing a vacuous "certified".
//
// An expect=fail pair (a planted negative control) must be VIOLATED at
// Δ=0; the violation is packaged as a concrete counterexample — checker
// witness outcome, a replaying machine run, and a Perfetto trace — so
// the pipeline's ability to catch a real bug stays demonstrated.

// Expectation strings in certificates.
const (
	ExpectCertify = "certify"
	ExpectFail    = "fail"
)

// Certificate statuses.
const (
	// StatusCertified: holds at every swept Δ ≥ 1, violated at Δ=0.
	StatusCertified = "certified"
	// StatusRefuted: an expect=fail pair violated at Δ=0, as planted.
	StatusRefuted = "refuted"
	// StatusDecertified: violated at some swept Δ ≥ 1 — the wait is
	// inadequate (or a fence is missing); a counterexample names it.
	StatusDecertified = "decertified"
	// StatusVacuous: holds even at Δ=0; the property does not depend on
	// the temporal bound, so the certificate would be meaningless.
	StatusVacuous = "vacuous"
	// StatusUnrefuted: an expect=fail pair that holds at Δ=0 — the
	// planted bug has disappeared.
	StatusUnrefuted = "unrefuted"
)

// SweepPoint is one explored bound.
type SweepPoint struct {
	Delta       int  `json:"delta"`
	Wait        int  `json:"wait"`
	Holds       bool `json:"holds"`
	States      int  `json:"states"`
	Transitions int  `json:"transitions"`
	Outcomes    int  `json:"outcomes"`
	// Witness is the lexically first forbidden outcome when !Holds.
	Witness string `json:"witness,omitempty"`
}

// Certificate is the machine-readable verdict for one pair. It embeds
// everything needed to audit it: the property, the abstract program
// with its source provenance, the variable/register naming, the sweep
// results and the reductions in effect.
type Certificate struct {
	Pair       string   `json:"pair"`
	Expect     string   `json:"expect"`
	Status     string   `json:"status"`
	Property   []string `json:"property"`
	Threads    int      `json:"threads"`
	Copies     int      `json:"copies"`
	Vars       []string `json:"vars"`
	WriterRegs []string `json:"writer_regs"`
	ReaderRegs []string `json:"reader_regs"`
	// WriterOps/ReaderOps render the abstract ops with their source
	// functions, e.g. "St flag0.v = 1 [lock.(*FFBL).ownerPublishAndCheck]".
	WriterOps []string `json:"writer_ops"`
	ReaderOps []string `json:"reader_ops"`
	// CertifiedDelta is the smallest swept Δ at which the property
	// holds (normally 1); 0 for expect=fail pairs.
	CertifiedDelta int `json:"certified_delta"`
	MaxDelta       int `json:"max_delta"`
	// Reductions lists the explorer reductions in effect somewhere in
	// the sweep (terminal-collapse, partial-order, symmetry).
	Reductions []string `json:"reductions"`
	// TSO is the Δ=0 (plain TSO) point; Sweep covers Δ=1..MaxDelta.
	TSO   SweepPoint   `json:"tso"`
	Sweep []SweepPoint `json:"sweep"`
	// Program is the instantiation the status rests on: at
	// CertifiedDelta for certified pairs, at Δ=0 for refuted ones.
	Program mc.Program `json:"program"`
}

// Counterexample is a concrete violation: the checker witness plus (when
// the sampler finds one) an exactly replayable machine run.
type Counterexample struct {
	Pair     string   `json:"pair"`
	Kind     string   `json:"kind"` // "planted-tso" or "decertified"
	Delta    int      `json:"delta"`
	Wait     int      `json:"wait"`
	Property []string `json:"property"`
	// Outcome is the forbidden outcome the exhaustive checker admits.
	Outcome string `json:"outcome"`
	// Schedule and MachOutcome name a concrete machine run exhibiting a
	// forbidden outcome (nil and empty if none of the sampled runs hit
	// one — the checker witness alone still proves admissibility).
	*fuzz.Schedule
	MachOutcome string `json:"mach_outcome,omitempty"`

	Threads    int        `json:"threads"`
	WriterRegs []string   `json:"writer_regs"`
	ReaderRegs []string   `json:"reader_regs"`
	Program    mc.Program `json:"program"`
}

// Options configures certification.
type Options struct {
	// MaxDelta is the top of the sweep (default 4): Δ runs 1..MaxDelta.
	MaxDelta int
	// MaxStates bounds each exploration (default mc.DefaultMaxStates).
	// A truncated exploration aborts certification — no certificate is
	// issued on a partial state space.
	MaxStates int
	// MachSeeds is how many scheduler seeds per drain policy the
	// machine-witness search samples (default 64).
	MachSeeds int
}

func (o Options) withDefaults() Options {
	if o.MaxDelta <= 0 {
		o.MaxDelta = 4
	}
	if o.MaxStates <= 0 {
		o.MaxStates = mc.DefaultMaxStates
	}
	if o.MachSeeds <= 0 {
		o.MachSeeds = 64
	}
	return o
}

// Report is the outcome of certifying one pair.
type Report struct {
	Cert Certificate
	// Cex is non-nil whenever a violation was found: for refuted
	// expect=fail pairs (the planted bug, as expected) and for
	// decertified pairs (a real finding).
	Cex *Counterexample
}

// Ok reports whether the verdict matches the pair's expectation.
func (r *Report) Ok() bool {
	return r.Cert.Status == StatusCertified || r.Cert.Status == StatusRefuted
}

// Certify explores the pair across the Δ sweep and issues its verdict.
// It fails (no certificate) only on exploration errors — a state-budget
// truncation or an unassembled pair — or on cancellation of ctx, which
// may be nil. The sweep runs in a fixed order — Δ=0, then 1..MaxDelta
// — and each completed cell is appended to the returned progress slice
// (index i holds Δ=i). prior is progress from an earlier, interrupted
// run of the SAME pair under the SAME options (see SweepProgress, which
// guards both): those cells are reused instead of re-explored, so a
// resumed sweep re-certifies only the unfinished (pair, Δ) cells. On
// cancellation the partial progress comes back with a nil Report and
// an error satisfying errors.Is(err, mc.ErrInterrupted).
func Certify(ctx context.Context, p *Pair, opt Options, prior []SweepPoint) (*Report, []SweepPoint, error) {
	if p.Failed {
		return nil, nil, fmt.Errorf("pair %s failed extraction; see diagnostics", p.Name)
	}
	opt = opt.withDefaults()
	if len(prior) > opt.MaxDelta+1 {
		prior = prior[:opt.MaxDelta+1]
	}

	cert := Certificate{
		Pair:       p.Name,
		Expect:     ExpectCertify,
		Property:   p.PropertyStrings(),
		Threads:    p.Threads(),
		Copies:     p.Copies,
		Vars:       p.Vars,
		WriterRegs: p.WriterRegs,
		ReaderRegs: p.ReaderRegs,
		WriterOps:  renderOps(p.WriterOps),
		ReaderOps:  renderOps(p.ReaderOps),
		MaxDelta:   opt.MaxDelta,
		Reductions: reductions(p),
	}
	if p.ExpectFail {
		cert.Expect = ExpectFail
	}

	// explore computes the cell at delta, reusing a prior run's point
	// when one was recorded. Reused cells are validated against the
	// sweep order — a prior slice from a different options shape never
	// silently shifts a Δ.
	explore := func(delta int) (SweepPoint, error) {
		if delta < len(prior) {
			if prior[delta].Delta != delta {
				return SweepPoint{}, fmt.Errorf("pair %s: sweep progress[%d] holds Δ=%d; progress document corrupt", p.Name, delta, prior[delta].Delta)
			}
			return prior[delta], nil
		}
		if ctx != nil && ctx.Err() != nil {
			return SweepPoint{}, fmt.Errorf("pair %s at Δ=%d: %w", p.Name, delta, &mc.InterruptedError{Shape: "sweep", Cause: ctx.Err()})
		}
		wait := delta + 1
		if delta == 0 {
			// Under unbounded TSO no finite wait helps; a token wait
			// keeps the state space small without weakening the check.
			wait = 1
		}
		prog := p.Instantiate(wait)
		res, err := mc.ExploreParallel(prog, delta, mc.Options{MaxStates: opt.MaxStates, Context: ctx})
		if err != nil {
			return SweepPoint{}, fmt.Errorf("pair %s at Δ=%d: %w", p.Name, delta, err)
		}
		pt := SweepPoint{
			Delta: delta, Wait: wait, Holds: true,
			States: res.States, Transitions: res.Transitions, Outcomes: len(res.Outcomes),
		}
		for _, o := range res.List() {
			if p.Forbidden(o) {
				pt.Holds = false
				pt.Witness = o
				break
			}
		}
		return pt, nil
	}

	var done []SweepPoint
	var err error
	if cert.TSO, err = explore(0); err != nil {
		return nil, done, err
	}
	done = append(done, cert.TSO)
	firstFail := 0
	for d := 1; d <= opt.MaxDelta; d++ {
		pt, err := explore(d)
		if err != nil {
			return nil, done, err
		}
		done = append(done, pt)
		cert.Sweep = append(cert.Sweep, pt)
		if pt.Holds && cert.CertifiedDelta == 0 {
			cert.CertifiedDelta = d
		}
		if !pt.Holds && firstFail == 0 {
			firstFail = d
		}
	}

	// The sweep is complete; the cheap verdict assembly below (plus the
	// machine-witness search for violated pairs) runs to completion even
	// under a late cancellation, so a fully-explored pair always yields
	// its certificate.
	rep := &Report{}
	switch {
	case p.ExpectFail:
		cert.CertifiedDelta = 0
		if cert.TSO.Holds {
			cert.Status = StatusUnrefuted
		} else {
			cert.Status = StatusRefuted
			rep.Cex = buildCex(p, "planted-tso", cert.TSO, opt)
		}
		cert.Program = p.Instantiate(cert.TSO.Wait)
	case firstFail != 0:
		cert.Status = StatusDecertified
		pt := cert.Sweep[firstFail-1]
		rep.Cex = buildCex(p, "decertified", pt, opt)
		cert.Program = p.Instantiate(pt.Wait)
	case cert.TSO.Holds:
		cert.Status = StatusVacuous
		cert.Program = p.Instantiate(cert.TSO.Wait)
	default:
		cert.Status = StatusCertified
		cert.Program = p.Instantiate(cert.CertifiedDelta + 1)
	}
	rep.Cert = cert
	return rep, done, nil
}

func renderOps(ops []AbsOp) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = fmt.Sprintf("%s [%s]", op.String(), op.Fn)
	}
	return out
}

// reductions lists the explorer reductions that apply to this pair
// somewhere in the sweep (mirrors mc's engine gating: terminal collapse
// always, partial order only at Δ=0 on wait-free small programs,
// symmetry only with identical threads).
func reductions(p *Pair) []string {
	out := []string{"terminal-collapse"}
	hasWait := false
	for _, op := range p.ReaderOps {
		if op.Kind == mc.OpWait {
			hasWait = true
		}
	}
	for _, op := range p.WriterOps {
		if op.Kind == mc.OpWait {
			hasWait = true
		}
	}
	if !hasWait && len(p.Vars) <= 64 {
		out = append(out, "partial-order")
	}
	if p.Copies >= 2 {
		out = append(out, "symmetry")
	}
	return out
}

// buildCex packages a violated sweep point as a counterexample,
// searching the clocked machine for a concrete run that exhibits a
// forbidden outcome (fuzz.MachineWitness, MachSeeds seeds per policy).
func buildCex(p *Pair, kind string, pt SweepPoint, opt Options) *Counterexample {
	prog := p.Instantiate(pt.Wait)
	cex := &Counterexample{
		Pair:       p.Name,
		Kind:       kind,
		Delta:      pt.Delta,
		Wait:       pt.Wait,
		Property:   p.PropertyStrings(),
		Outcome:    pt.Witness,
		Threads:    p.Threads(),
		WriterRegs: p.WriterRegs,
		ReaderRegs: p.ReaderRegs,
		Program:    prog,
	}
	if run, outcome, ok := fuzz.MachineWitness(prog, pt.Delta, opt.MachSeeds, p.Forbidden); ok {
		cex.Schedule = &fuzz.Schedule{Policy: run.Policy, MachSeed: run.Seed}
		cex.MachOutcome = outcome
	}
	return cex
}

// PerfettoTrace replays the counterexample's machine run with a
// Perfetto exporter attached and writes the Chrome trace-event JSON.
// Requires a machine witness (Schedule set).
func (c *Counterexample) PerfettoTrace(w io.Writer) error {
	if c.Schedule == nil {
		return fmt.Errorf("extract: counterexample for %s has no machine witness to trace", c.Pair)
	}
	pf, err := fuzz.TraceRun(c.Program, c.Schedule.Run(c.Delta))
	if err != nil {
		return err
	}
	return pf.WriteJSON(w)
}

// Replay re-validates a counterexample: the checker must still admit
// its outcome and the outcome must still be forbidden; if a machine
// run is named, that exact run must still produce a forbidden outcome.
func (c *Counterexample) Replay(p *Pair, opt Options) error {
	opt = opt.withDefaults()
	if p.Failed {
		return fmt.Errorf("pair %s failed extraction", p.Name)
	}
	if !p.Forbidden(c.Outcome) {
		return fmt.Errorf("outcome %q is no longer forbidden by %s's property", c.Outcome, c.Pair)
	}
	res, err := mc.ExploreParallel(c.Program, c.Delta, mc.Options{MaxStates: opt.MaxStates})
	if err != nil {
		return err
	}
	if !res.Has(c.Outcome) {
		return fmt.Errorf("checker no longer admits outcome %q at Δ=%d", c.Outcome, c.Delta)
	}
	if c.Schedule != nil {
		outcome, err := fuzz.RunOnMachine(c.Program, c.Schedule.Run(c.Delta))
		if err != nil {
			return err
		}
		if !p.Forbidden(outcome) {
			return fmt.Errorf("machine run (%s, seed %d) no longer exhibits a forbidden outcome (got %q)",
				c.Policy, c.MachSeed, outcome)
		}
	}
	return nil
}
