package fuzz

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tbtso/internal/mc"
	"tbtso/internal/obs"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
	"tbtso/internal/tso"
)

// Config parameterizes the differential driver. Zero fields select
// defaults sized so one program's full sweep finishes in milliseconds.
type Config struct {
	// Gen sizes the program generator.
	Gen GenConfig
	// Deltas is the Δ sweep, in checker transitions; 0 means unbounded
	// (plain TSO). Default {0, 1, 3}.
	Deltas []int
	// Policies are the machine drain policies each program is sampled
	// under. Default: eager, random, adversarial.
	Policies []tso.DrainPolicy
	// MachSeeds is how many scheduler seeds the machine is run with per
	// (Δ, policy) cell (default 3).
	MachSeeds int
	// MaxStates bounds each checker exploration (default 200_000).
	// Explorations that hit it are counted as truncated and skipped —
	// outcome absence in a partial set proves nothing.
	MaxStates int
	// CrossCheckStates: when the parallel engine's exploration visited
	// at most this many states, the sequential reference explorer is
	// run on the same (program, Δ) and the outcome sets compared
	// (default 20_000; negative disables). With Δ 0 in the sweep, a cell
	// above the lowest positive Δ may be settled by the exact check
	// against out(0) instead, which ignores this bound (settle).
	CrossCheckStates int
	// Flight, if non-nil, is the campaign flight recorder: every
	// (seed, Δ) cell's sampled runs record into the cell's own seed
	// group, under a fresh monitor from the flight's factory (so a
	// campaign's machine side can run under continuous Δ-residency
	// verification without a lock), and Stream appends each folded
	// program's cell groups, joined in Δ order, to Flight in seed
	// order. A check that is cut short leaves no trace.
	Flight *monitor.ShardedFlight
	// Workers is the parallelism of Run: the campaign's (seed, Δ)
	// cells are sharded across this many workers, each with its own
	// machine. 0 means GOMAXPROCS. The merged Report is identical for
	// every worker count (cells are independent, and each program's
	// report is assembled from its cells in Δ order and merged in seed
	// order).
	Workers int
}

func (c Config) orDefault() Config {
	c.Gen = c.Gen.orDefault()
	if c.Deltas == nil {
		c.Deltas = []int{0, 1, 3}
	}
	if c.Policies == nil {
		c.Policies = []tso.DrainPolicy{tso.DrainEager, tso.DrainRandom, tso.DrainAdversarial}
	}
	if c.MachSeeds == 0 {
		c.MachSeeds = 3
	}
	if c.MaxStates == 0 {
		c.MaxStates = 200_000
	}
	if c.CrossCheckStates == 0 {
		c.CrossCheckStates = 20_000
	}
	return c
}

// Mismatch kinds.
const (
	// KindSampledOutcome: the checker does not admit a machine run at
	// the covering Δ — at Δ 0 its outcome is outside the exploration's
	// set, above Δ 0 the run does not replay as a checker path at the
	// cover. The core containment violation.
	KindSampledOutcome = "sampled-outcome"
	// KindEngineDivergence: the parallel engine and the sequential
	// reference disagree on the outcome set at the same (program, Δ).
	KindEngineDivergence = "engine-divergence"
	// KindMachineError: the machine faulted running a generated program
	// (Δ violation, deadlock, tick budget) — always a harness or model
	// bug, generated programs cannot legitimately fault.
	KindMachineError = "machine-error"
)

// Mismatch is one differential failure, carrying everything needed to
// replay it: the program, the sweep Δ, and (for sampled-outcome and
// machine-error kinds) the machine schedule that showed it. It is its
// own wire form: the checkpoint's shrink queue holds it verbatim, and
// Artifact embeds it.
type Mismatch struct {
	Kind  string `json:"kind"`
	Seed  int64  `json:"seed"`            // generator seed (0 if the program wasn't generated)
	Delta int    `json:"delta"`           // sweep Δ, checker transitions
	Cover int    `json:"cover,omitempty"` // covering Δ the containment was checked at
	// Schedule is the machine run; nil when the record names none.
	*Schedule
	Outcome string     `json:"outcome,omitempty"` // offending outcome (sampled-outcome kind)
	Detail  string     `json:"detail,omitempty"`
	Program mc.Program `json:"program"`
}

// Schedule names one machine run of a record's program: the drain
// policy and the scheduler seed. Records embed it as a pointer, so the
// "policy" and "mach_seed" keys appear exactly when the record names a
// machine run, and an unknown policy name fails to decode.
type Schedule struct {
	Policy   tso.DrainPolicy `json:"policy"`
	MachSeed int64           `json:"mach_seed,omitempty"`
}

// Run is the machine run s names at sweep Δ delta.
func (s *Schedule) Run(delta int) MachineRun {
	return MachineRun{Delta: MachineDelta(delta), Policy: s.Policy, Seed: s.MachSeed}
}

// machineRun is the run m's schedule names, or an error when it names
// none.
func (m Mismatch) machineRun() (MachineRun, error) {
	if m.Schedule == nil {
		return MachineRun{}, fmt.Errorf("fuzz: %s record names no machine schedule", m.Kind)
	}
	return m.Schedule.Run(m.Delta), nil
}

func (m Mismatch) String() string {
	s := fmt.Sprintf("%s: seed=%d Δ=%d", m.Kind, m.Seed, m.Delta)
	if m.Schedule != nil {
		s += fmt.Sprintf(" policy=%v machSeed=%d", m.Policy, m.MachSeed)
	}
	if m.Outcome != "" {
		s += " outcome=" + m.Outcome
	}
	if m.Detail != "" {
		s += " (" + m.Detail + ")"
	}
	return s
}

// Report is what checking programs found: the mismatches, and the
// coverage, which is the only account of the work — programs checked,
// machine runs sampled, explorations completed and truncated, replays.
// Checkpoint.Fold and Publish read their counts from it.
type Report struct {
	Mismatches []Mismatch
	// Coverage is the campaign coverage accumulated over the report's
	// programs (counts, op mix, shapes, swept cells, drain causes, mc
	// reduction hits). It merges in seed order, and because every field
	// is an integer accumulator the merged snapshot is identical for
	// every worker count.
	Coverage coverage.Snapshot
}

// Add folds r2 into r.
func (r *Report) Add(r2 Report) {
	r.Mismatches = append(r.Mismatches, r2.Mismatches...)
	r.Coverage.Merge(&r2.Coverage)
}

// Publish adds r's counts to reg's fuzz.* counters: programs, runs,
// explorations (completed or truncated), truncated, mismatches, and
// replayed (Δ > 0 runs that checked as a witness path; one that does
// not is a mismatch). A campaign publishes each report it folds, so the
// counters cover exactly the folded programs.
func (r *Report) Publish(reg *obs.Registry) {
	st := r.Coverage.MC
	reg.Counter("fuzz.programs").Add(r.Coverage.Programs)
	reg.Counter("fuzz.runs").Add(r.Coverage.Runs)
	reg.Counter("fuzz.explorations").Add(st.Explorations + st.Truncated)
	reg.Counter("fuzz.truncated").Add(st.Truncated)
	reg.Counter("fuzz.mismatches").Add(uint64(len(r.Mismatches)))
	reg.Counter("fuzz.replayed").Add(st.WitnessedChecks)
}

// explorers are a campaign worker's reusable checker contexts, kept
// next to its Sampler: the engine and the reference oracle reset them
// for each exploration instead of allocating their tables afresh.
type explorers struct {
	engine mc.Explorer
	ref    mc.Reference
}

// The two explorers, as variables so tests can plant one or count runs.
var (
	exploreEngine    = (*mc.Explorer).Explore
	exploreReference = (*mc.Reference).Explore
)

// explore runs the engine on one worker, tolerating truncation: a
// truncated exploration returns ok=false and the check that needed it
// is skipped. One worker, because a campaign already runs one (seed, Δ)
// cell per core. A cancelled exploration (ctx) propagates its
// *mc.InterruptedError — the caller must treat the whole program check
// as incomplete, never as a finding.
func (c Config) explore(ctx context.Context, x *mc.Explorer, p mc.Program, delta int) (mc.Result, bool, error) {
	res, err := exploreEngine(x, p, delta, mc.Options{MaxStates: c.MaxStates, Workers: 1, Context: ctx})
	if err != nil {
		var te *mc.TruncatedError
		if errors.As(err, &te) {
			return mc.Result{}, false, nil
		}
		return mc.Result{}, false, err
	}
	return res, true, nil
}

// cancelled reports whether ctx (nil = uncancellable) is done.
func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// crossCheck runs the reference oracle on (p, Δ) against the engine's
// exploration of states states with outcome set out: detail renders a
// difference, and ran is false when the reference truncated.
func (c Config) crossCheck(ref *mc.Reference, p mc.Program, delta int, out map[string]bool, states int) (detail string, ran bool) {
	seq, err := exploreReference(ref, p, delta, c.MaxStates, states)
	if err != nil || maps.Equal(out, seq.Outcomes) {
		return "", err == nil
	}
	return diffOutcomes(out, seq.Outcomes), true
}

// diffOutcomes renders the symmetric difference of two outcome sets.
func diffOutcomes(a, b map[string]bool) string {
	return fmt.Sprintf("parallel-only=%v sequential-only=%v", outside(a, b), outside(b, a))
}

// outside lists a's outcomes that are not in b, sorted and capped for
// readability; nil when a ⊆ b.
func outside(a, b map[string]bool) []string {
	var xs []string
	for o := range a {
		if !b[o] {
			xs = append(xs, o)
		}
	}
	sort.Strings(xs)
	if len(xs) > 3 {
		return append(xs[:3:3], "...")
	}
	return xs
}

// CheckProgram runs the full differential sweep on one program: for
// every Δ in the sweep, (1) the engine's outcome set at the exact Δ is
// checked against the reference oracle's or out(0), and across Δ
// (settle), and (2) every (policy × machine seed) sample of the clocked
// machine at Δ ticks is asserted to be admitted by the checker at the
// covering Δ. At Δ 0 the sample's outcome must be in the exact
// exploration's set; above Δ 0 the run must replay as a checker path at
// the cover (checkRun). seed tags mismatches for replay; pass the
// generator seed (or 0 for hand-built programs).
func CheckProgram(cfg Config, p mc.Program, seed int64) Report {
	rep, _ := checkProgram(nil, cfg.orDefault(), NewSampler(), new(explorers), nil, p, seed)
	return rep
}

// opKindName maps checker op kinds to the coverage op-mix vocabulary.
func opKindName(k mc.OpKind) string {
	switch k {
	case mc.OpStore:
		return "store"
	case mc.OpLoad:
		return "load"
	case mc.OpFence:
		return "fence"
	case mc.OpRMW:
		return "rmw"
	case mc.OpWait:
		return "wait"
	default:
		return "unknown"
	}
}

// observeProgram records p's shape and op mix into the report's
// coverage.
func observeProgram(rep *Report, p mc.Program) {
	ops := make(map[string]uint64, 5)
	for _, th := range p.Threads {
		for _, op := range th {
			ops[opKindName(op.Kind)]++
		}
	}
	threads, totalOps := shape(p)
	rep.Coverage.ObserveProgram(threads, totalOps, ops)
}

// shape is p's coverage shape: its thread and total op counts.
func shape(p mc.Program) (threads, totalOps int) {
	for _, th := range p.Threads {
		totalOps += len(th)
	}
	return len(p.Threads), totalOps
}

// sampler is the machine side of a program check (a *Sampler outside tests).
type sampler interface {
	sample(p mc.Program, run MachineRun, sinks ...tso.Sink) ([]byte, tso.Result, error)
	sampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) ([]byte, tso.Result, bool, error)
}

// newSampler builds each campaign worker's machine side.
var newSampler = func() sampler { return NewSampler() }

// checkProgram is CheckProgram with an explicit execution context:
// checkCell at every Δ of the sweep in order, all on one sampler, one
// set of checker contexts and one flight recorder (rec, nil when
// cfg.Flight is off), and settle's fold of the cells into the report.
// cfg must already be defaulted. ctx (nil = uncancellable) cancels
// mid-check; complete is false when the check was cut short, and then
// the report is empty.
func checkProgram(ctx context.Context, cfg Config, s sampler, x *explorers, rec *monitor.SeedRecorder, p mc.Program, seed int64) (rep Report, complete bool) {
	cells := make([]cell, max(len(cfg.Deltas), 1))
	for j, delta := range cfg.Deltas {
		if !checkCell(ctx, cfg, s, x, rec, &cells[j], p, seed, delta) {
			return Report{}, false
		}
	}
	return settle(cfg, &x.ref, p, seed, cells), true
}

// cell is one (seed, Δ) cell's check as settle sees it: its records and
// plain counts, which settle observes into the program's one report.
type cell struct {
	delta      int
	mismatches []Mismatch
	res        mc.Result // the engine's exploration; Outcomes is nil unless it completed
	truncated  bool
	drains     tso.DrainStats // machine commits by cause, over the cell's runs
	witnessed  uint64         // Δ > 0 runs that replayed as a checker path
	vouched    bool           // the reference ran on this cell and agreed
	diverged   bool           // the cell holds an engine-divergence record on res
}

// observe records c into cov, the report of a program of the given
// shape. A completed exploration ran every policy × machine seed.
func (c *cell) observe(cov *coverage.Snapshot, cfg Config, threads, totalOps int) {
	if c.truncated {
		cov.ObserveTruncated()
	}
	r := &c.res
	if r.Outcomes == nil {
		return
	}
	cov.ObserveExploration(r.States, r.Transitions, r.DedupHits, r.PorPrunes, r.TerminalCollapses)
	cov.ObserveOutcomeSet(threads, totalOps, len(r.Outcomes))
	for _, pol := range cfg.Policies {
		for i := range cfg.MachSeeds {
			cov.ObserveRun(c.delta, pol.String(), i)
		}
	}
	for cause, n := range c.drains {
		cov.ObserveDrain(tso.DrainCause(cause).String(), n)
	}
	cov.MC.WitnessedChecks += c.witnessed
}

// checkCell checks one (seed, Δ) cell of the sweep into c: the engine's
// exploration of p at Δ, the reference oracle's cross-check of it
// (settle's, above the lowest positive Δ of a sweep with Δ 0), and every
// (policy × machine seed) run of the clocked machine at Δ ticks with its
// containment verdict at the covering Δ (checkRun). s is the
// worker-local machine the runs reuse, x the worker's checker contexts,
// and rec (nil when cfg.Flight is off) the flight recorder every run
// streams into lock-free. seed tags mismatches for replay. cfg must
// already be defaulted. ctx (nil = uncancellable) is checked before the
// exploration, inside it and before each machine run; complete is false
// when the cell was cut short, and then its program's check is
// incomplete: it has to be re-checked from scratch (it is deterministic
// per seed, so a re-run reproduces the full report exactly), and rec's
// group is discarded.
func checkCell(ctx context.Context, cfg Config, s sampler, x *explorers, rec *monitor.SeedRecorder, c *cell, p mc.Program, seed int64, delta int) (complete bool) {
	if cancelled(ctx) {
		return false
	}
	c.delta = delta
	var stop <-chan struct{} // nil, never ready, when ctx is nil
	if ctx != nil {
		stop = ctx.Done()
	}
	var sinks []tso.Sink
	if rec != nil {
		sinks = []tso.Sink{rec}
	}
	flag := func(m Mismatch) { // every finding carries the replay key
		m.Seed, m.Program = seed, p
		c.mismatches = append(c.mismatches, m)
	}

	raw, ok, err := cfg.explore(ctx, &x.engine, p, delta)
	if err != nil {
		if errors.Is(err, mc.ErrInterrupted) {
			return false
		}
		flag(Mismatch{Kind: KindEngineDivergence, Delta: delta, Detail: "parallel engine error: " + err.Error()})
		return true
	}
	if !ok {
		c.truncated = true
		return true
	}
	c.res = raw

	// Engine cross-check at the RAW sweep Δ, so small Δs are pinned
	// engine-to-engine even though containment runs at the cover. The
	// engine's count is a lower bound on the reference's, which has no
	// reductions.
	if lo, ok := sandwich(cfg.Deltas); (!ok || delta <= lo) && cfg.CrossCheckStates >= 0 && raw.States <= cfg.CrossCheckStates {
		detail, ran := cfg.crossCheck(&x.ref, p, delta, raw.Outcomes, raw.States)
		c.vouched, c.diverged = ran && detail == "", detail != ""
		if c.diverged {
			flag(Mismatch{Kind: KindEngineDivergence, Delta: delta, Detail: detail})
		}
	}

	// Containment: every machine run at Δ ticks against the checker
	// at the covering Δ (see CoverDelta for why this is sound).
	machDelta := MachineDelta(delta)
	cover := CoverDelta(p, machDelta)
	for pi, pol := range cfg.Policies {
		for i := 0; i < cfg.MachSeeds; i++ {
			select {
			case <-stop:
				return false
			default:
			}
			machSeed := seed*1000003 + int64(pi)*101 + int64(i)
			run := MachineRun{Delta: machDelta, Policy: pol, Seed: machSeed}
			outcome, mres, admitted, err := checkRun(s, p, cover, raw, run, sinks...)
			if rec != nil {
				rec.TagRun(coverage.CellKey(delta, pol.String(), i))
			}
			if err != nil {
				flag(Mismatch{Kind: KindMachineError, Delta: delta, Cover: cover,
					Schedule: &Schedule{Policy: pol, MachSeed: machSeed}, Detail: err.Error()})
				continue
			}
			for cause, n := range mres.Stats.Drains {
				c.drains[cause] += n
			}
			switch {
			case !admitted:
				flag(Mismatch{Kind: KindSampledOutcome, Delta: delta, Cover: cover,
					Schedule: &Schedule{Policy: pol, MachSeed: machSeed}, Outcome: outcome})
			case cover > 0:
				c.witnessed++
			}
		}
	}
	return true
}

// sandwich returns the sweep's lowest positive Δ and whether the sweep
// also holds Δ 0, so that settle settles the cells above it.
func sandwich(deltas []int) (lo int, ok bool) {
	for _, d := range deltas {
		if d > 0 && (lo == 0 || d < lo) {
			lo = d
		}
	}
	return lo, lo > 0 && slices.Contains(deltas, 0)
}

// settle folds one program's cells, in sweep order, into its report,
// for checkProgram and Stream alike. With Δ 0 and lowest positive Δ lo
// in the sweep, out(lo) ⊆ out(Δ) ⊆ out(0) (docs/FUZZ.md): if the
// reference vouched for Δ 0 and lo and out(lo) = out(0), each cell above
// lo must equal out(0) (the exact check), else ref checks each such cell
// small enough for it. Then the explored sets must nest in ascending Δ,
// Δ 0 last (the chain); a break is recorded at the tighter Δ unless
// either cell holds a divergence. Records go first in their cell's. The
// report is observeProgram's counts and each cell's, in sweep order.
func settle(cfg Config, ref *mc.Reference, p mc.Program, seed int64, cells []cell) Report {
	flag := func(c *cell, detail string) {
		c.diverged = true
		c.mismatches = slices.Insert(c.mismatches, 0, Mismatch{Kind: KindEngineDivergence, Seed: seed, Delta: c.delta, Detail: detail, Program: p})
	}
	if lo, ok := sandwich(cfg.Deltas); ok {
		out0 := cells[slices.IndexFunc(cells, func(c cell) bool { return c.delta == 0 })].res.Outcomes
		premise := !slices.ContainsFunc(cells, func(c cell) bool {
			return (c.delta == 0 || c.delta == lo) && !(c.vouched && maps.Equal(c.res.Outcomes, out0))
		})
		for i := range cells {
			c := &cells[i]
			out := c.res.Outcomes
			switch {
			case c.delta <= lo || out == nil:
			case premise:
				if !maps.Equal(out, out0) {
					flag(c, diffOutcomes(out, out0))
				}
			case cfg.CrossCheckStates >= 0 && c.res.States <= cfg.CrossCheckStates:
				if detail, _ := cfg.crossCheck(ref, p, c.delta, out, c.res.States); detail != "" {
					flag(c, detail)
				}
			}
		}
	}

	chain := make([]*cell, len(cells))
	for i := range cells {
		chain[i] = &cells[i]
	}
	chain = slices.DeleteFunc(chain, func(c *cell) bool { return c.res.Outcomes == nil })
	// Ascending Δ: Δ 0, unbounded, wraps round to last.
	slices.SortStableFunc(chain, func(a, b *cell) int { return cmp.Compare(uint(a.delta-1), uint(b.delta-1)) })
	for i := 1; i < len(chain); i++ {
		a, b := chain[i-1], chain[i]
		if extra := outside(a.res.Outcomes, b.res.Outcomes); extra != nil && !a.diverged && !b.diverged {
			flag(a, fmt.Sprintf("outcomes at Δ %d but not at Δ %d: %v", a.delta, b.delta, extra))
		}
	}

	var rep Report
	observeProgram(&rep, p)
	threads, totalOps := shape(p)
	for i := range cells {
		rep.Mismatches = append(rep.Mismatches, cells[i].mismatches...)
		cells[i].observe(&rep.Coverage, cfg, threads, totalOps)
	}
	return rep
}

// checkRun samples run on p and returns the containment verdict on it.
// At cover 0 (sweep Δ 0) the outcome must be in exact, the exploration
// at Δ 0. Above it the run itself must replay as a checker path at
// cover: every run at the machine's Δ is one (CoverDelta), so a run that
// does not replay is not admitted, whatever its outcome. Either test
// reads the outcome's bytes and allocates nothing; the outcome is
// rendered as a string only for a run that is not admitted.
func checkRun(s sampler, p mc.Program, cover int, exact mc.Result, run MachineRun, sinks ...tso.Sink) (outcome string, res tso.Result, admitted bool, err error) {
	var out []byte
	if cover > 0 {
		out, res, admitted, err = s.sampleWitness(p, run, cover, sinks...)
	} else {
		out, res, err = s.sample(p, run, sinks...)
		admitted = err == nil && exact.Outcomes[string(out)]
	}
	if admitted {
		return "", res, true, nil
	}
	return string(out), res, false, err
}

// Run generates and checks n programs starting at startSeed, sharding
// their (seed, Δ) cells across cfg.Workers workers (GOMAXPROCS when 0),
// and returns the aggregate report. Deterministic per (cfg, n,
// startSeed) and independent of the worker count: program i's report
// depends only on (cfg, startSeed+i) — each worker runs its cells on a
// private machine, and Stream assembles a program's report from its
// cells in Δ order — and the per-program reports are merged in seed
// order.
func Run(cfg Config, n int, startSeed int64) Report {
	rep, _, _ := RunContext(nil, cfg, n, startSeed)
	return rep
}

// RunContext is Run with cooperative cancellation: Stream folding every
// program's report with Report.Add. On cancellation it returns the merged report
// of the longest CONTIGUOUS prefix of completed seeds along with the
// prefix length: the report covers exactly the programs with seeds in
// [startSeed, startSeed+done), merged in seed order. Because each
// program's report is deterministic per (cfg, seed), resuming with
// RunContext(ctx, cfg, n-done, startSeed+done) and folding the two
// reports with Add yields a Report byte-identical to an uninterrupted
// Run(cfg, n, startSeed) — the property TestRunContextPrefixResume
// pins. err is the context's error when the run was cut short, nil
// when all n programs completed (even if ctx was cancelled after the
// last one finished).
func RunContext(ctx context.Context, cfg Config, n int, startSeed int64) (Report, int, error) {
	var rep Report
	done, err := Stream(ctx, cfg, n, startSeed, func(r Report) bool {
		rep.Add(r)
		return true
	})
	return rep, done, err
}

// Parallelism resolves Workers (GOMAXPROCS when 0) and the reorder
// window Stream derives from it: the workers may run at most window
// programs past the last folded program.
func (c Config) Parallelism() (workers, window int) {
	workers = c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers, 4 * workers
}

// checked is one (seed, Δ) cell check travelling through Stream's
// window.
type checked struct {
	i int // the cell's index in the campaign
	cell
	p        mc.Program // the cell's program
	complete bool
	group    *monitor.SeedGroup // nil without cfg.Flight or when cut short
}

// worker is one campaign worker's reusable context: the machine its
// runs sample on, its checker contexts, its generator, and the last
// program it generated, which its next cells of the same seed reuse.
type worker struct {
	s    sampler
	x    explorers
	gen  generator
	seed int64
	p    mc.Program // seed's program, once has is set
	has  bool
}

// genProgram builds seed's program on a worker's generator; tests
// swap in fixed programs.
var genProgram = (*generator).gen

// program returns seed's program, generating it unless it was the last.
func (w *worker) program(cfg GenConfig, seed int64) mc.Program {
	if !w.has || w.seed != seed {
		w.p, w.seed, w.has = genProgram(&w.gen, cfg, seed), seed, true
	}
	return w.p
}

// cell checks cell i of a campaign of k cells per program starting at
// startSeed: program i/k at Δ cfg.Deltas[i%k]. With cfg.Flight set the
// cell records into its own seed recorder.
func (w *worker) cell(ctx context.Context, cfg Config, startSeed int64, i, k int) *checked {
	seed, j := startSeed+int64(i/k), i%k
	p := w.program(cfg.Gen, seed)
	var rec *monitor.SeedRecorder
	if cfg.Flight != nil {
		rec = cfg.Flight.Record(seed)
	}
	c := &checked{i: i, p: p, complete: true}
	if j < len(cfg.Deltas) {
		c.complete = checkCell(ctx, cfg, w.s, &w.x, rec, &c.cell, p, seed, cfg.Deltas[j])
	}
	if rec != nil && c.complete {
		c.group = rec.Finish()
	}
	return c
}

// Stream generates and checks n programs starting at startSeed and
// hands each program's report to fold, once per program, in seed order,
// on the calling goroutine. The unit of work is one (seed, Δ) cell —
// one checkCell — so the cells of a slow program spread over the
// workers (see Parallelism) instead of idling the others behind it.
// The workers take cells from a shared cursor, in (seed, Δ) order, but
// never run more than a window of programs' cells past the last folded
// program, so memory stays bounded in n. The calling goroutine folds
// each program's cells in Δ order with settle, so the report is the one
// checkProgram returns, whatever the worker count. With cfg.Flight set, each cell records into its own seed recorder, and the program's
// cell groups, joined in Δ order (monitor.JoinGroups), are appended to
// the flight just before fold sees the report.
//
// Stream stops at the first program with a cell cut short by ctx (nil
// = uncancellable), or after a fold that returns false, and returns
// only once every worker has exited. done counts the folded programs —
// the seeds [startSeed, startSeed+done) — and err is the context's
// error when a cell was cut short, nil otherwise. Cells that finished
// past the stopping point are discarded, their flight groups with them.
func Stream(ctx context.Context, cfg Config, n int, startSeed int64, fold func(Report) bool) (done int, err error) {
	cfg = cfg.orDefault()
	workers, window := cfg.Parallelism()
	k := max(len(cfg.Deltas), 1) // cells per program
	cells, slots := n*k, window*k
	workers = min(workers, cells)

	// credit holds a token per cell taken and not yet folded, so a full
	// credit channel stalls the workers; each results send holds a
	// token, so results never fills up either.
	credit := make(chan struct{}, slots)
	results := make(chan *checked, slots)
	quit := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{s: newSampler()}
			for {
				select {
				case credit <- struct{}{}:
				case <-quit:
					return
				}
				select {
				case <-quit:
					return
				default:
				}
				if cancelled(ctx) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= cells {
					return
				}
				results <- w.cell(ctx, cfg, startSeed, i, k)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	defer func() {
		close(quit)
		for range results { // drain until every worker has exited
		}
	}()

	ring := make([]*checked, slots) // cell i waits in ring[i%slots]
	var groups []*monitor.SeedGroup
	sweep, ref := make([]cell, k), new(mc.Reference) // the program's cells, in Δ order; settle's oracle
	for done < n {
		var p mc.Program
		groups = groups[:0]
		for j := range k {
			i := done*k + j
			for ring[i%slots] == nil {
				c, ok := <-results
				if !ok {
					// Every worker stopped on ctx before taking this cell.
					return done, ctx.Err()
				}
				ring[c.i%slots] = c
			}
			c := ring[i%slots]
			ring[i%slots] = nil
			if !c.complete {
				return done, ctx.Err()
			}
			sweep[j], p = c.cell, c.p
			if c.group != nil {
				groups = append(groups, c.group)
			}
		}
		if len(groups) > 0 {
			cfg.Flight.Append(monitor.JoinGroups(groups))
		}
		rep := settle(cfg, ref, p, startSeed+int64(done), sweep)
		done++
		if !fold(rep) {
			return done, nil
		}
		for range k {
			<-credit
		}
	}
	return done, nil
}
