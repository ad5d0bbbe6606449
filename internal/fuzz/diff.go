package fuzz

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
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
	// (default 20_000; negative disables).
	CrossCheckStates int
	// Flight, if non-nil, is the campaign flight recorder: every
	// program's sampled runs record into the program's own seed group,
	// under a fresh monitor set from the flight's factory (so a
	// campaign's machine side can run under continuous Δ-residency
	// verification without a lock), and Stream appends each folded
	// program's group to Flight in seed order. A check that is cut short
	// leaves no trace.
	Flight *monitor.ShardedFlight
	// Workers is the parallelism of Run: the (program, seed) space is
	// sharded across this many workers, each with its own machine.
	// 0 means GOMAXPROCS. The merged Report is identical for every worker
	// count (programs are independent and reports are merged in seed
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
	// KindSampledOutcome: the machine sampled an outcome the checker
	// does not admit at the covering Δ — its run did not replay as a
	// checker path there, and the covering exploration's outcome set
	// lacks it. The core containment violation.
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
// replayed / replay_failed (Δ > 0 samples whose run did / did not check
// as a witness path). A campaign publishes each report it folds, so the
// counters cover exactly the folded programs.
func (r *Report) Publish(reg *obs.Registry) {
	st := r.Coverage.MC
	reg.Counter("fuzz.programs").Add(r.Coverage.Programs)
	reg.Counter("fuzz.runs").Add(r.Coverage.Runs)
	reg.Counter("fuzz.explorations").Add(st.Explorations + st.Truncated)
	reg.Counter("fuzz.truncated").Add(st.Truncated)
	reg.Counter("fuzz.mismatches").Add(uint64(len(r.Mismatches)))
	reg.Counter("fuzz.replayed").Add(st.WitnessedChecks)
	reg.Counter("fuzz.replay_failed").Add(st.ReplayFailed)
}

// explore runs the parallel engine, tolerating truncation: a truncated
// exploration returns ok=false and the check that needed it is skipped.
// A cancelled exploration (ctx) propagates its *mc.InterruptedError —
// the caller must treat the whole program check as incomplete, never
// as a finding.
func (c Config) explore(ctx context.Context, p mc.Program, delta int) (mc.Result, bool, error) {
	res, err := mc.ExploreParallel(p, delta, mc.Options{MaxStates: c.MaxStates, Context: ctx})
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

// diffOutcomes renders the symmetric difference of two outcome sets,
// capped for readability.
func diffOutcomes(a, b map[string]bool) string {
	var missing, extra []string
	for o := range a {
		if !b[o] {
			missing = append(missing, o)
		}
	}
	for o := range b {
		if !a[o] {
			extra = append(extra, o)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	cap3 := func(xs []string) []string {
		if len(xs) > 3 {
			return append(xs[:3:3], "...")
		}
		return xs
	}
	return fmt.Sprintf("parallel-only=%v sequential-only=%v", cap3(missing), cap3(extra))
}

// CheckProgram runs the full differential sweep on one program: for
// every Δ in the sweep, (1) the two checker engines are compared on the
// exact Δ, and (2) every (policy × machine seed) sample of the clocked
// machine at Δ ticks is asserted to be admitted by the checker at the
// covering Δ. At Δ 0 the sample's outcome must be in the exact
// exploration's set; above Δ 0 the run is first replayed as a checker
// path at the cover, and only a sample that does not replay is looked
// up in the covering exploration's outcome set. seed tags mismatches
// for replay; pass the generator seed (or 0 for hand-built programs).
func CheckProgram(cfg Config, p mc.Program, seed int64) Report {
	rep, _ := checkProgram(nil, cfg.orDefault(), NewSampler(), nil, p, seed)
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
// coverage and returns (threads, totalOps) for the later shape-keyed
// observations.
func observeProgram(rep *Report, p mc.Program) (threads, totalOps int) {
	ops := make(map[string]uint64, 5)
	for _, th := range p.Threads {
		totalOps += len(th)
		for _, op := range th {
			ops[opKindName(op.Kind)]++
		}
	}
	threads = len(p.Threads)
	rep.Coverage.ObserveProgram(threads, totalOps, ops)
	return threads, totalOps
}

// sampler is the machine side of a program check (a *Sampler outside tests).
type sampler interface {
	Sample(p mc.Program, run MachineRun, sinks ...tso.Sink) (string, tso.Result, error)
	SampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) (string, tso.Result, bool, error)
}

// checkProgram is CheckProgram with an explicit execution context: the
// sampler is the worker-local machine the program's runs reuse, and rec
// (nil when cfg.Flight is off) is the program's own flight recorder —
// every sampled run streams into it lock-free. cfg must already be
// defaulted. ctx (nil = uncancellable) cancels mid-check; complete is
// false when the check was cut short, in which case the report is a
// partial that MUST NOT be merged into a campaign — the program has to
// be re-checked from scratch (it is deterministic per seed, so a re-run
// reproduces the full report exactly), and rec's group is discarded
// with it.
func checkProgram(ctx context.Context, cfg Config, s sampler, rec *monitor.SeedRecorder, p mc.Program, seed int64) (rep Report, complete bool) {
	threads, totalOps := observeProgram(&rep, p)

	var sinks []tso.Sink
	if rec != nil {
		sinks = []tso.Sink{rec}
	}
	flag := func(m Mismatch) { // every finding carries the replay key
		m.Seed, m.Program = seed, p
		rep.Mismatches = append(rep.Mismatches, m)
	}

	for _, delta := range cfg.Deltas {
		if cancelled(ctx) {
			return rep, false
		}
		raw, ok, err := cfg.explore(ctx, p, delta)
		if err != nil {
			if errors.Is(err, mc.ErrInterrupted) {
				return rep, false
			}
			flag(Mismatch{Kind: KindEngineDivergence, Delta: delta, Detail: "parallel engine error: " + err.Error()})
			continue
		}
		if !ok {
			rep.Coverage.ObserveTruncated()
			continue
		}
		rep.Coverage.ObserveExploration(raw.States, raw.Transitions, raw.DedupHits, raw.PorPrunes, raw.TerminalCollapses)
		rep.Coverage.ObserveOutcomeSet(threads, totalOps, len(raw.Outcomes))

		// Engine cross-check at the RAW sweep Δ, so small Δs are pinned
		// engine-to-engine even though containment runs at the cover.
		if cfg.CrossCheckStates >= 0 && raw.States <= cfg.CrossCheckStates {
			seqRes, seqErr := mc.ExploreSequentialBounded(p, delta, cfg.MaxStates)
			if seqErr == nil && !maps.Equal(raw.Outcomes, seqRes.Outcomes) {
				flag(Mismatch{Kind: KindEngineDivergence, Delta: delta, Detail: diffOutcomes(raw.Outcomes, seqRes.Outcomes)})
			}
		}

		// Containment: machine samples at Δ ticks vs the checker at the
		// covering Δ (see CoverDelta for why this is sound). Above Δ 0
		// each sample is first checked as a witness path at the cover;
		// the covering exploration runs only for a sample whose path
		// does not check, at most once per Δ, and then decides.
		machDelta := MachineDelta(delta)
		cover := CoverDelta(p, machDelta)
		admitted, decided, explored := raw, cover == delta, cover == delta
		for pi, pol := range cfg.Policies {
			for i := 0; i < cfg.MachSeeds; i++ {
				machSeed := seed*1000003 + int64(pi)*101 + int64(i)
				rep.Coverage.ObserveRun(delta, pol.String(), i)
				run := MachineRun{Delta: machDelta, Policy: pol, Seed: machSeed}
				var (
					outcome   string
					mres      tso.Result
					witnessed bool
				)
				if decided {
					outcome, mres, err = s.Sample(p, run, sinks...)
				} else {
					outcome, mres, witnessed, err = s.SampleWitness(p, run, cover, sinks...)
				}
				if rec != nil {
					rec.TagRun(coverage.CellKey(delta, pol.String(), i))
				}
				if err != nil {
					flag(Mismatch{Kind: KindMachineError, Delta: delta, Cover: cover,
						Schedule: &Schedule{Policy: pol, MachSeed: machSeed}, Detail: err.Error()})
					continue
				}
				for c := 0; c < int(tso.NumDrainCauses); c++ {
					cause := tso.DrainCause(c)
					rep.Coverage.ObserveDrain(cause.String(), mres.Stats.Drains.ByCause(cause))
				}
				if witnessed {
					rep.Coverage.ObserveCheck(true)
					continue
				}
				if !decided {
					rep.Coverage.MC.ReplayFailed++
				}
				if !explored {
					explored = true
					admitted, decided, err = cfg.explore(ctx, p, cover)
					switch {
					case errors.Is(err, mc.ErrInterrupted):
						return rep, false
					case err != nil:
						flag(Mismatch{Kind: KindEngineDivergence, Delta: delta, Cover: cover,
							Detail: "cover exploration error: " + err.Error()})
					case !decided:
						rep.Coverage.ObserveTruncated()
					default:
						rep.Coverage.ObserveExploration(admitted.States, admitted.Transitions, admitted.DedupHits, admitted.PorPrunes, admitted.TerminalCollapses)
					}
				}
				if !decided {
					continue // no verdict: the covering exploration did not complete
				}
				if cover != delta {
					rep.Coverage.ObserveCheck(false) // a failed replay, decided by the covering set
				}
				if !admitted.Has(outcome) {
					flag(Mismatch{Kind: KindSampledOutcome, Delta: delta, Cover: cover,
						Schedule: &Schedule{Policy: pol, MachSeed: machSeed}, Outcome: outcome})
				}
			}
		}
	}
	return rep, true
}

// Run generates and checks n programs starting at startSeed, sharding
// the seed space across cfg.Workers workers (GOMAXPROCS when 0), and
// returns the aggregate report. Deterministic per (cfg, n, startSeed)
// and independent of the worker count: program i's report depends only
// on (cfg, startSeed+i) — each worker runs its programs on a private
// machine — and the per-program reports are merged in seed order.
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
// seeds past the last folded program.
func (c Config) Parallelism() (workers, window int) {
	workers = c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers, 4 * workers
}

// checked is one program check travelling through Stream's window.
type checked struct {
	i        int
	rep      Report
	complete bool
	group    *monitor.SeedGroup // nil without cfg.Flight or when cut short
}

// Stream generates and checks n programs starting at startSeed and
// hands each program's report to fold, once per program, in seed order,
// on the calling goroutine. The workers (see Parallelism) take seeds
// from a shared cursor but never run more than a window of seeds past
// the last folded program, so memory stays bounded in n and no worker
// idles at a barrier behind a slow program. With cfg.Flight set, each
// program's seed group travels with its report and is appended to the
// flight just before fold sees the report.
//
// Stream stops at the first program cut short by ctx (nil =
// uncancellable), or after a fold that returns false, and returns only
// once every worker has exited. done counts the folded programs — the
// seeds [startSeed, startSeed+done) — and err is the context's error
// when a program was cut short, nil otherwise. Checks that finished past
// the stopping point are discarded, their flight groups with them.
func Stream(ctx context.Context, cfg Config, n int, startSeed int64, fold func(Report) bool) (done int, err error) {
	cfg = cfg.orDefault()
	workers, window := cfg.Parallelism()
	workers = min(workers, n)

	// credit holds a token per seed taken and not yet folded, so a full
	// credit channel stalls the workers; each results send holds a
	// token, so results never fills up either.
	credit := make(chan struct{}, window)
	results := make(chan *checked, window)
	quit := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSampler()
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
				if i >= n {
					return
				}
				seed := startSeed + int64(i)
				var rec *monitor.SeedRecorder
				if cfg.Flight != nil {
					rec = cfg.Flight.Record(seed)
				}
				c := &checked{i: i}
				c.rep, c.complete = checkProgram(ctx, cfg, s, rec, Gen(cfg.Gen, seed), seed)
				if rec != nil && c.complete {
					c.group = rec.Finish()
				}
				results <- c
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

	slots := make([]*checked, window) // seed startSeed+i waits in slots[i%window]
	for done < n {
		for slots[done%window] == nil {
			c, ok := <-results
			if !ok {
				// Every worker stopped on ctx before taking this seed.
				return done, ctx.Err()
			}
			slots[c.i%window] = c
		}
		c := slots[done%window]
		slots[done%window] = nil
		if !c.complete {
			return done, ctx.Err()
		}
		if c.group != nil {
			cfg.Flight.Append(c.group)
		}
		done++
		if !fold(c.rep) {
			return done, nil
		}
		<-credit
	}
	return done, nil
}
