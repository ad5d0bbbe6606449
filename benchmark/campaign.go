package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tbtso/internal/fuzz"
	"tbtso/internal/mc"
	"tbtso/internal/stats"
	"tbtso/internal/tso"
)

// campaignSpec is one campaign workload: the tbtso-fuzz flags that
// differ between the workloads, and how its fixed program corpus is cut
// into CLI invocations ("chunks").
type campaignSpec struct {
	deltas    string  // -deltas
	machSeeds int     // -machseeds
	chunk     int     // programs per CLI invocation
	toyChunk  int     // the same, at test size
	chunkS    float64 // nominal seconds per chunk at W=2
}

// Flags both campaign workloads pass with the CLI's default values,
// spelt out so the traced run's shadow driver uses the same ones.
const (
	policies   = "eager,random,adversarial"
	maxStates  = 200_000
	crossCheck = 20_000
)

var (
	campaignFull = campaignSpec{deltas: "0,1,3", machSeeds: 3, chunk: 125, toyChunk: 6, chunkS: 2.5}
	campaignTSO  = campaignSpec{deltas: "0", machSeeds: 30, chunk: 1000, toyChunk: 40, chunkS: 2.5}
)

// corpus returns the first seed of each chunk, in the order the run
// checks them, and the chunk size. The corpus is seeds 1..chunks*size,
// fixed by the run length alone: per-program cost is heavy-tailed (the
// slowest 1% of programs take about a third of the time), so two
// contiguous seed ranges of the same size differ in cost by up to a
// quarter. The seed only rotates the order of the chunks.
func (s campaignSpec) corpus(e *env) (firsts []int64, size int) {
	size = s.chunk
	if e.toy {
		size = s.toyChunk
	}
	n := e.rounds(s.chunkS, 1)
	rot := int((e.seed%int64(n) + int64(n)) % int64(n))
	for i := range n {
		firsts = append(firsts, 1+int64((i+rot)%n*size))
	}
	return firsts, size
}

func (s campaignSpec) cliArgs(first int64, n, w int) []string {
	return []string{
		"-n", strconv.Itoa(n), "-seed", strconv.FormatInt(first, 10),
		"-workers", strconv.Itoa(w), "-json", "-metrics",
		"-deltas", s.deltas, "-policies", policies, "-machseeds", strconv.Itoa(s.machSeeds),
		"-maxstates", strconv.Itoa(maxStates), "-crosscheck", strconv.Itoa(crossCheck),
	}
}

// cliSummary is the part of tbtso-fuzz's -json summary the gates read.
type cliSummary struct {
	Programs    int   `json:"programs"`
	Runs        int   `json:"runs"`
	Truncated   int   `json:"truncated"`
	Mismatches  int   `json:"mismatches"`
	FirstSeed   int64 `json:"first_seed"`
	LastSeed    int64 `json:"last_seed"`
	ElapsedMS   int64 `json:"elapsed_ms"`
	Interrupted bool  `json:"interrupted"`
}

// checkChunk is the correctness gate of one CLI invocation over seeds
// first..first+n-1.
func checkChunk(exitErr, decodeErr error, sum cliSummary, first int64, n int) error {
	last := first + int64(n) - 1
	switch {
	case decodeErr != nil:
		return fmt.Errorf("no summary (%v); %v", decodeErr, exitErr)
	case sum.Mismatches != 0:
		return fmt.Errorf("%d mismatches", sum.Mismatches)
	case sum.Interrupted:
		return errors.New("campaign interrupted")
	case sum.Programs != n:
		return fmt.Errorf("checked %d programs, want %d", sum.Programs, n)
	case sum.FirstSeed != first || sum.LastSeed != last:
		return fmt.Errorf("covered seeds %d..%d, want %d..%d", sum.FirstSeed, sum.LastSeed, first, last)
	case exitErr != nil:
		return fmt.Errorf("tbtso-fuzz: %w", exitErr)
	}
	return nil
}

// parseCounters reads the integer metrics out of the CLI's -metrics
// dump ("name value" lines on standard error).
func parseCounters(b []byte) map[string]int64 {
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// campaignCounts are the exact totals the untraced CLI and the traced
// shadow driver must agree on.
type campaignCounts struct {
	Programs     int `json:"programs"`
	Runs         int `json:"runs"`
	Explorations int `json:"explorations"`
	Truncated    int `json:"truncated"`
	Mismatches   int `json:"mismatches"`
}

// chunkRun is one finished CLI invocation.
type chunkRun struct {
	child
	sum cliSummary
}

// runChunks checks the corpus through the CLI, gating each invocation.
func (s campaignSpec) runChunks(e *env, res *result) ([]chunkRun, campaignCounts, error) {
	firsts, size := s.corpus(e)
	var runs []chunkRun
	var n campaignCounts
	for _, first := range firsts {
		c, err := spawn(e.w, nil, e.fuzzBin, s.cliArgs(first, size, e.w)...)
		if err != nil {
			return nil, n, err
		}
		cr := chunkRun{child: c}
		decodeErr := json.Unmarshal(c.stdout, &cr.sum)
		res.attempted++
		if err := checkChunk(c.exitErr, decodeErr, cr.sum, first, size); err != nil {
			res.fail("seeds %d..%d: %v", first, first+int64(size)-1, err)
		}
		n.Programs += cr.sum.Programs
		n.Runs += cr.sum.Runs
		n.Truncated += cr.sum.Truncated
		n.Mismatches += cr.sum.Mismatches
		n.Explorations += int(parseCounters(c.stderr)["fuzz.explorations"])
		runs = append(runs, cr)
	}
	res.counts["programs"] = int64(n.Programs)
	res.counts["runs"] = int64(n.Runs)
	res.counts["explorations"] = int64(n.Explorations)
	res.counts["truncated"] = int64(n.Truncated)
	return runs, n, nil
}

// run is the untraced run: work_per_s is programs per second of the
// CLI's own elapsed time, setup_s the median over invocations of the
// time until the summary appeared, less that elapsed time.
func (s campaignSpec) run(e *env) (*result, error) {
	res := newResult()
	chunks, n, err := s.runChunks(e, res)
	if err != nil {
		return nil, err
	}
	var loop float64
	var setups, rss []float64
	for _, c := range chunks {
		elapsed := float64(c.sum.ElapsedMS) / 1e3
		loop += elapsed
		setups = append(setups, c.ready.Seconds()-elapsed)
		rss = append(rss, c.rssMB)
	}
	res.metrics["work_per_s"] = ratio(float64(n.Programs), loop)
	res.metrics["setup_s"] = stats.Median(setups)
	res.metrics["peak_rss_mb"] = stats.Median(rss)
	return res, nil
}

// campaignLayers are the span layers of a campaign program, and the
// ones that also report states and latency quantiles.
var (
	campaignLayers = []string{"fuzz.gen", "mc.explore.sweep", "mc.explore.cover", "mc.explore.truncated", "mc.oracle", "tso.sample"}
	mcLayers       = []string{"mc.explore.sweep", "mc.explore.cover", "mc.explore.truncated", "mc.oracle"}
)

// trace is the traced run: the corpus goes through the untraced CLI
// once, for the counts and the untraced time, then through the shadow
// driver, which records a span around every layer call.
func (s campaignSpec) trace(e *env) (*result, error) {
	start := time.Now()
	res := newResult()
	chunks, cli, err := s.runChunks(e, res)
	if err != nil {
		return nil, err
	}
	var cliLoop, cpu float64
	for _, c := range chunks {
		cliLoop += float64(c.sum.ElapsedMS) / 1e3
		cpu += c.cpu.Seconds()
	}
	firsts, size := s.corpus(e)
	var sh shadowOut
	c, err := runChild(e, "shadow", &sh,
		"-first", "1", "-n", strconv.Itoa(len(firsts)*size), "-workers", strconv.Itoa(e.w),
		"-deltas", s.deltas, "-machseeds", strconv.Itoa(s.machSeeds))
	if err != nil {
		return nil, err
	}
	res.spans = adopt(sh.Spans, 1, c.start.Sub(start))

	m := res.metrics
	layers, busy := selfTimes(res.spans)
	layerMetrics(m, layers, busy, campaignLayers, mcLayers)
	root := layers["campaign.program"]
	if root == nil {
		return nil, errors.New("shadow recorded no programs")
	}
	m["campaign.program.self_s"] = float64(root.self) / 1e9
	m["campaign.program.p50_ms"] = quantile(root.durs, 0.50) / 1e6
	m["campaign.program.p99_ms"] = quantile(root.durs, 0.99) / 1e6
	m["campaign.program.max_ms"] = quantile(root.durs, 1) / 1e6
	m["campaign.top1pct_share"] = topShare(root.durs, 0.01)
	if l := layers["tso.sample"]; l != nil {
		m["tso.sample.ns_per_run"] = ratio(float64(l.self), float64(sh.Counts.Runs))
	}
	progDur := map[int64]int64{}
	for _, sp := range res.spans {
		if sp.Root {
			progDur[sp.ID] = sp.Dur
		}
	}
	idle, modelWall := barrierModel(progDur, firsts, size, e.w)
	m["fuzz.barrier_idle_share"] = idle
	m["fuzz.truncated_share"] = ratio(float64(cli.Truncated), float64(cli.Explorations))
	m["mc.dedup_hit_ratio"] = ratio(float64(sh.DedupHits), float64(sh.Transitions))
	m["mc.por_prunes"] = float64(sh.PorPrunes)
	m["mc.terminal_collapses"] = float64(sh.TerminalCollapses)
	m["cpu_s"] = cpu
	// The shadow has no batch barrier, so its own wall time is compared
	// with the CLI's only after the barrier is replayed over it.
	m["trace.overhead"] = float64(modelWall)/1e9/cliLoop - 1
	m["trace.counts_match"] = 0
	if sh.Counts == cli {
		m["trace.counts_match"] = 1
	}
	return res, sbProbe(e, res)
}

// topShare is the share of the total taken by the largest frac of durs
// (at least one).
func topShare(durs []int64, frac float64) float64 {
	s := slices.Clone(durs)
	slices.Sort(s)
	slices.Reverse(s)
	var top, total int64
	for i, d := range s {
		if i < max(1, int(frac*float64(len(s)))) {
			top += d
		}
		total += d
	}
	return ratio(float64(top), float64(total))
}

// barrierModel replays the CLI's batch barrier over the traced
// per-program times (a model: the times come from the shadow, which has
// no barrier). Each chunk's seeds go in batches of w*4; a batch is
// dealt in seed order to whichever of w workers frees first, as
// fuzz.RunContext's atomic index does, and the next batch starts only
// when its slowest program ends. It returns the share of worker time
// spent waiting at the barriers and the modelled wall time in ns.
func barrierModel(dur map[int64]int64, firsts []int64, size, w int) (idleShare float64, wall int64) {
	var idle int64
	free := make([]int64, w)
	for _, first := range firsts {
		for b := 0; b < size; b += w * 4 {
			clear(free)
			var work int64
			for i := b; i < min(b+w*4, size); i++ {
				d := dur[first+int64(i)]
				free[slices.Index(free, slices.Min(free))] += d
				work += d
			}
			makespan := slices.Max(free)
			idle += int64(w)*makespan - work
			wall += makespan
		}
	}
	return ratio(float64(idle), float64(int64(w)*wall)), wall
}

// shadowOut is the shadow child's result.
type shadowOut struct {
	Counts            campaignCounts `json:"counts"`
	Transitions       int            `json:"transitions"`
	DedupHits         int            `json:"dedup_hits"`
	PorPrunes         int            `json:"por_prunes"`
	TerminalCollapses int            `json:"terminal_collapses"`
	Spans             []span         `json:"spans"`
}

func (o *shadowOut) add(p *shadowOut) {
	o.Counts.Programs += p.Counts.Programs
	o.Counts.Runs += p.Counts.Runs
	o.Counts.Explorations += p.Counts.Explorations
	o.Counts.Truncated += p.Counts.Truncated
	o.Counts.Mismatches += p.Counts.Mismatches
	o.Transitions += p.Transitions
	o.DedupHits += p.DedupHits
	o.PorPrunes += p.PorPrunes
	o.TerminalCollapses += p.TerminalCollapses
	o.Spans = append(o.Spans, p.Spans...)
}

// shadow makes the calls fuzz's checkProgram makes into the public
// layer functions — the same calls, in the same order, with the same
// options — and records a span around each, so a campaign's time splits
// by layer without any change inside the program.
type shadow struct {
	deltas    []int
	policies  []tso.DrainPolicy
	machSeeds int
	ctx       context.Context // cancellable, like the CLI's signal context
}

func shadowChild(args []string) (*shadowOut, error) {
	fs := flag.NewFlagSet("shadow", flag.ContinueOnError)
	first := fs.Int64("first", 1, "first program seed")
	n := fs.Int("n", 0, "programs to check")
	workers := fs.Int("workers", 1, "goroutines taking seeds from a shared index")
	deltas := fs.String("deltas", "0,1,3", "Δ sweep")
	machSeeds := fs.Int("machseeds", 3, "machine seeds per (Δ, policy)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sh := &shadow{machSeeds: *machSeeds, ctx: ctx}
	for _, f := range strings.Split(*deltas, ",") {
		d, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad Δ %q", f)
		}
		sh.deltas = append(sh.deltas, d)
	}
	for _, f := range strings.Split(policies, ",") {
		p, err := fuzz.ParsePolicy(f)
		if err != nil {
			return nil, err
		}
		sh.policies = append(sh.policies, p)
	}
	return sh.run(*first, *n, *workers), nil
}

// run checks seeds first..first+n-1 on workers goroutines that take
// the next seed from a shared index, as fuzz.RunContext does.
func (sh *shadow) run(first int64, n, workers int) *shadowOut {
	origin := time.Now()
	parts := make([]shadowOut, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{origin: origin, tid: w}
			s := fuzz.NewSampler()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				sh.program(rec, s, &parts[w], first+i)
			}
			parts[w].Spans = rec.spans
		}()
	}
	wg.Wait()
	out := &shadowOut{}
	for i := range parts {
		out.add(&parts[i])
	}
	return out
}

// program is checkProgram for one seed, with spans.
func (sh *shadow) program(rec *recorder, s *fuzz.Sampler, out *shadowOut, seed int64) {
	root := rec.now()
	t := root
	p := fuzz.Gen(fuzz.GenConfig{}, seed)
	rec.end("fuzz.gen", seed, t, false, 0, 0)
	out.Counts.Programs++
	for _, delta := range sh.deltas {
		raw, ok := sh.explore(rec, out, p, seed, delta, "mc.explore.sweep")
		if !ok {
			continue
		}
		if raw.States <= crossCheck {
			t = rec.now()
			seq, err := mc.ExploreSequentialBounded(p, delta, maxStates)
			rec.end("mc.oracle", seed, t, false, seq.States, 0)
			if err == nil && !maps.Equal(raw.Outcomes, seq.Outcomes) {
				out.Counts.Mismatches++
			}
		}
		machDelta := fuzz.MachineDelta(delta)
		admitted := raw
		if cover := fuzz.CoverDelta(p, machDelta); cover != delta {
			if admitted, ok = sh.explore(rec, out, p, seed, cover, "mc.explore.cover"); !ok {
				continue
			}
		}
		t = rec.now()
		runs := 0
		for pi, pol := range sh.policies {
			for i := range sh.machSeeds {
				// checkProgram's machine-seed formula.
				run := fuzz.MachineRun{Delta: machDelta, Policy: pol, Seed: seed*1000003 + int64(pi)*101 + int64(i)}
				outcome, _, err := s.Sample(p, run)
				runs++
				if err != nil || !admitted.Has(outcome) {
					out.Counts.Mismatches++
				}
			}
		}
		rec.end("tso.sample", seed, t, false, 0, runs)
		out.Counts.Runs += runs
	}
	rec.end("campaign.program", seed, root, true, 0, 0)
}

// explore is the campaign's exploration call with a span around it. A
// truncated exploration is recorded under mc.explore.truncated; it and
// a failed one report ok=false, and the program's check at this Δ stops.
func (sh *shadow) explore(rec *recorder, out *shadowOut, p mc.Program, seed int64, delta int, layer string) (mc.Result, bool) {
	t := rec.now()
	res, err := mc.ExploreParallel(p, delta, mc.Options{MaxStates: maxStates, Context: sh.ctx})
	out.Counts.Explorations++
	if errors.Is(err, mc.ErrTruncated) {
		rec.end("mc.explore.truncated", seed, t, false, maxStates, 0)
		out.Counts.Truncated++
		return res, false
	}
	rec.end(layer, seed, t, false, res.States, 0)
	if err != nil {
		out.Counts.Mismatches++
		return res, false
	}
	out.Transitions += res.Transitions
	out.DedupHits += res.DedupHits
	out.PorPrunes += res.PorPrunes
	out.TerminalCollapses += res.TerminalCollapses
	return res, true
}
