// Command tbtso-fuzz is the differential fuzzer: it generates random
// litmus-scale programs over the model checker's full op vocabulary,
// runs each on BOTH implementations of TBTSO[Δ] — the clocked abstract
// machine (sampled schedules under several drain policies) and the
// exhaustive checker (both engines) — and reports any behaviour the two
// disagree on. Failures are delta-debugged to a minimal program and
// emitted as replayable artifacts: JSON (seed/Δ/policy/program), Go
// litmus-test source, and a Perfetto trace of the failing machine run.
//
//	tbtso-fuzz -n 10000 -deltas 0,1,3,inf        # campaign
//	tbtso-fuzz -time 30s -json                   # budgeted, JSON summary
//	tbtso-fuzz -n 1e6 -ckpt c.json               # checkpointed campaign
//	tbtso-fuzz -resume c.json                    # continue where it stopped
//	tbtso-fuzz -plant -out artifacts/            # planted negative controls
//	tbtso-fuzz -replay artifacts/ffhp-tso.json   # re-check an artifact
//
// A first SIGINT/SIGTERM drains gracefully: the campaign stops at a
// program boundary, writes the checkpoint (with -ckpt/-resume), flushes
// obs artifacts, and exits 130; a second signal hard-exits. Resuming an
// interrupted campaign reproduces the uninterrupted report exactly —
// see docs/ROBUSTNESS.md.
//
// Exit status: 0 clean, 1 mismatches found (or a planted control NOT
// found — the detector lost a violation class), 2 usage errors, 130
// interrupted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tbtso/internal/cli"
	"tbtso/internal/fuzz"
	"tbtso/internal/obs"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
	"tbtso/internal/obs/serve"
	"tbtso/internal/tso"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program; main's os.Exit is the single exit point, so
// every deferred teardown (obs session finish, signal-handler release)
// always runs — no exit path may bypass them.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("tbtso-fuzz", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 1000, "program budget: generated programs to check")
		seed       = fs.Int64("seed", 1, "first generator seed; program i uses seed+i")
		deltasStr  = fs.String("deltas", "0,1,3", `Δ sweep in checker transitions; "inf" (unbounded TSO) is an alias for 0`)
		policyStr  = fs.String("policies", "eager,random,adversarial", "machine drain policies sampled per cell")
		machSeeds  = fs.Int("machseeds", 3, "machine schedules per (Δ, policy) cell")
		maxStates  = fs.Int("maxstates", 200_000, "state budget per checker exploration; exceeding it truncates (skips) the check")
		crossCheck = fs.Int("crosscheck", 20_000, "run the sequential reference engine when the parallel exploration is at most this many states (-1 disables)")
		timeBudget = fs.Duration("time", 0, "wall-clock budget; stops early even if -n remains (0 = none; breaks resume byte-identity — see docs/ROBUSTNESS.md)")
		workers    = fs.Int("workers", 0, "campaign workers sharding the seed space (0 = GOMAXPROCS, 1 = serial); the report is worker-count independent")
		shrinkMax  = fs.Int("shrink", 4000, "max shrink attempts (failure-predicate runs) per mismatch")
		outDir     = fs.String("out", "", "write artifacts (.json, .go.txt, .trace.json) to this directory")
		ckptPath   = fs.String("ckpt", "", "write a campaign checkpoint here periodically and on interruption")
		ckptEvery  = fs.Int("ckpt.every", 512, "programs between periodic checkpoints (with -ckpt)")
		resumePath = fs.String("resume", "", "resume an interrupted campaign from this checkpoint (campaign flags must match; continues checkpointing here unless -ckpt overrides)")
		plant      = fs.Bool("plant", false, "run the planted negative controls instead of a campaign")
		replay     = fs.String("replay", "", "replay one artifact JSON file and exit")
		jsonOut    = fs.Bool("json", false, "emit the summary as JSON on stdout")
		metrics    = fs.Bool("metrics", false, "print the obs metrics registry to stderr")
		verbose    = fs.Bool("v", false, "log each mismatch and shrink as it happens")
	)
	var obsOpts serve.Options
	obsOpts.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := cli.SignalContext(context.Background(), os.Stderr)
	defer stop()

	sess, err := obsOpts.Start(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obs:", err)
		return 1
	}
	defer func() {
		if nv := sess.FinishContext(ctx, os.Stderr, "tbtso-fuzz"); nv > 0 && code == 0 {
			code = 1
		}
		code = cli.ExitCode(ctx, code)
	}()

	reg := sess.Registry
	cfg := fuzz.Config{
		MachSeeds:        *machSeeds,
		MaxStates:        *maxStates,
		CrossCheckStates: *crossCheck,
		Metrics:          reg,
		Workers:          *workers,
	}
	if cfg.Deltas, err = parseDeltas(*deltasStr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if cfg.Policies, err = parsePolicies(*policyStr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	switch {
	case *replay != "":
		return replayArtifact(*replay, *jsonOut)
	case *plant:
		return runPlanted(ctx, cfg, reg, *outDir, *shrinkMax, *jsonOut, *metrics)
	default:
		camp := &campaign{
			cfg: cfg, reg: reg, n: *n, startSeed: *seed,
			budget: *timeBudget, shrinkMax: *shrinkMax, outDir: *outDir,
			ckptPath: *ckptPath, ckptEvery: *ckptEvery, resumePath: *resumePath,
			jsonOut: *jsonOut, metrics: *metrics, verbose: *verbose,
			flightDir: obsOpts.FlightDir,
		}
		if obsOpts.Monitors != "" || obsOpts.FlightDir != "" {
			// Campaigns record flight data per seed instead of through
			// the session's shared recorder: each seed gets a fresh
			// monitor set (exact violation attribution) and no lock is
			// taken on the event hot path. The session recorder serves
			// only the unconditional interrupt post-mortem dump.
			spec := obsOpts.Monitors
			var factory func() *monitor.Set
			if spec != "" {
				factory = func() *monitor.Set {
					set, err := serve.ParseMonitors(spec, reg)
					if err != nil {
						// Options.Start validated the spec already.
						panic("tbtso-fuzz: monitor spec: " + err.Error())
					}
					return set
				}
			}
			camp.flight = monitor.NewShardedFlight(factory, monitor.DefaultFlightSeeds)
			camp.cfg.Flight = camp.flight
		}
		if srv := sess.Server(); srv != nil {
			srv.SetCoverage(camp.liveCoverage)
			if camp.flight != nil {
				srv.SetFlightRecorder(camp.flight)
				srv.AddViolations(camp.flight.Violations)
			}
		}
		if sess.Addr != "" {
			fmt.Fprintf(os.Stderr, "tbtso-fuzz: ops endpoint http://%s\n", sess.Addr)
		}
		return camp.run(ctx)
	}
}

// parseDeltas accepts "0,1,3,inf": "inf"/"∞" is the unbounded sweep
// point, which in both models is Δ=0; duplicates are collapsed so the
// alias does not double the work.
func parseDeltas(s string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		d := 0
		if f != "inf" && f != "∞" {
			var err error
			if d, err = strconv.Atoi(f); err != nil || d < 0 {
				return nil, fmt.Errorf("tbtso-fuzz: bad Δ %q", f)
			}
		}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tbtso-fuzz: empty Δ sweep")
	}
	return out, nil
}

func parsePolicies(s string) ([]tso.DrainPolicy, error) {
	var out []tso.DrainPolicy
	for _, f := range strings.Split(s, ",") {
		p, err := fuzz.ParsePolicy(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

type summary struct {
	Programs    int      `json:"programs"`
	Runs        int      `json:"runs"`
	Truncated   int      `json:"truncated"`
	Mismatches  int      `json:"mismatches"`
	ShrinkSteps int      `json:"shrink_steps"`
	Artifacts   []string `json:"artifacts,omitempty"`
	FirstSeed   int64    `json:"first_seed"`
	LastSeed    int64    `json:"last_seed"`
	ElapsedMS   int64    `json:"elapsed_ms"`
	// Interrupted marks a summary cut short by a signal or the time
	// budget (omitted on complete campaigns, so a resumed-to-completion
	// summary is byte-identical to an uninterrupted one).
	Interrupted bool `json:"interrupted,omitempty"`
	// Checkpoint is where the resumable state went when Interrupted.
	Checkpoint string `json:"checkpoint,omitempty"`
}

// campaign is one fuzz campaign invocation: the knobs plus the running
// totals and shrink queue the checkpoint persists.
type campaign struct {
	cfg        fuzz.Config
	reg        *obs.Registry
	n          int
	startSeed  int64
	budget     time.Duration
	shrinkMax  int
	outDir     string
	ckptPath   string
	ckptEvery  int
	resumePath string
	jsonOut    bool
	metrics    bool
	verbose    bool

	sum     summary
	done    int             // seeds folded: [startSeed, startSeed+done) are complete
	pending []fuzz.Mismatch // mismatches from folded seeds, not yet shrunk

	// flight is the campaign flight recorder (nil unless
	// -obs.monitor/-obs.flightdir); flightDir receives its merged dump.
	flight    *monitor.ShardedFlight
	flightDir string
	// cov is the merged campaign coverage for the folded prefix; liveCov
	// is its latest published clone, served on /coverage.
	cov     coverage.Snapshot
	liveCov atomic.Pointer[coverage.Snapshot]
	// resumed is the checkpoint this invocation resumed from (nil for a
	// fresh campaign). Without a recorder of its own, the campaign
	// carries its flight fields through to the next checkpoint, so they
	// are conserved across segments.
	resumed *fuzz.Checkpoint
}

// liveCoverage serves /coverage: the latest published snapshot (nil
// before any coverage exists, which the endpoint reports as 404).
func (c *campaign) liveCoverage() *coverage.Snapshot { return c.liveCov.Load() }

// publishCoverage clones the merged coverage for the ops endpoint.
func (c *campaign) publishCoverage() { c.liveCov.Store(c.cov.Clone()) }

// publish refreshes what the ops endpoint serves: the coverage clone and
// the throughput gauges. The campaign calls it once per window of folded
// programs, never once per program.
func (c *campaign) publish(start time.Time) {
	c.publishCoverage()
	if sec := time.Since(start).Seconds(); sec > 0 {
		c.reg.Gauge("fuzz.campaign.programs_per_sec").Set(int64(float64(c.sum.Programs) / sec))
		c.reg.Gauge("fuzz.campaign.runs_per_sec").Set(int64(float64(c.sum.Runs) / sec))
	}
}

// checkpoint persists the campaign's resumable state; a no-op without
// a checkpoint path.
func (c *campaign) checkpoint(hash string) {
	if c.ckptPath == "" {
		return
	}
	ck := &fuzz.Checkpoint{
		Kind: fuzz.CheckpointKind, ConfigHash: hash,
		N: c.n, FirstSeed: c.startSeed, NextSeed: c.startSeed + int64(c.done),
		Programs: c.sum.Programs, Runs: c.sum.Runs, Truncated: c.sum.Truncated,
		Mismatches: c.sum.Mismatches, ShrinkSteps: c.sum.ShrinkSteps,
		Artifacts: c.sum.Artifacts,
	}
	if !c.cov.Empty() {
		ck.Coverage = &c.cov
	}
	switch {
	case c.flight != nil:
		ck.FlightEvents, ck.FlightViolations = c.flight.Totals()
		ck.FlightViolating = c.flight.Violating()
	case c.resumed != nil:
		ck.FlightEvents, ck.FlightViolations = c.resumed.FlightEvents, c.resumed.FlightViolations
		ck.FlightViolating = c.resumed.FlightViolating
	}
	for _, m := range c.pending {
		ck.Pending = append(ck.Pending, fuzz.EncodeMismatch(m))
	}
	if _, err := fuzz.WriteCheckpointMetered(c.ckptPath, ck, c.reg); err != nil {
		fmt.Fprintln(os.Stderr, "tbtso-fuzz: checkpoint:", err)
	}
}

// shrinkOne minimizes a mismatch and writes its artifacts, folding the
// work into the summary.
func (c *campaign) shrinkOne(m fuzz.Mismatch) {
	if c.verbose {
		fmt.Fprintf(os.Stderr, "MISMATCH %s\n", m)
	}
	a := fuzz.ShrinkMismatch(c.cfg, m, c.shrinkMax)
	c.sum.ShrinkSteps += a.ShrinkSteps
	c.reg.Counter("fuzz.shrink_steps").Add(uint64(a.ShrinkSteps))
	name := fmt.Sprintf("mismatch-seed%d-d%d-%s", m.Seed, m.Delta, m.Kind)
	path, err := writeArtifact(c.outDir, name, a)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else if path != "" {
		c.sum.Artifacts = append(c.sum.Artifacts, path)
	}
	if c.verbose || c.outDir == "" {
		fmt.Fprintln(os.Stderr, a.GoSource("Shrunk"))
	}
}

// drainPending shrinks queued mismatches until the queue is empty or
// ctx cancels; it reports whether the queue fully drained.
func (c *campaign) drainPending(ctx context.Context) bool {
	for len(c.pending) > 0 {
		if ctx.Err() != nil {
			return false
		}
		m := c.pending[0]
		c.pending = c.pending[1:]
		c.shrinkOne(m)
	}
	return true
}

func (c *campaign) run(ctx context.Context) int {
	start := time.Now()
	hash := c.cfg.CampaignHash(c.n, c.startSeed, c.shrinkMax)
	c.sum = summary{FirstSeed: c.startSeed, LastSeed: c.startSeed - 1}
	if c.flight != nil {
		c.flight.Begin(c.startSeed)
	}

	if c.resumePath != "" {
		ck, err := fuzz.ReadCheckpoint(c.resumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tbtso-fuzz:", err)
			return 2
		}
		if err := ck.Validate(hash); err != nil {
			fmt.Fprintln(os.Stderr, "tbtso-fuzz:", err)
			return 2
		}
		if c.pending, err = ck.PendingMismatches(); err != nil {
			fmt.Fprintln(os.Stderr, "tbtso-fuzz:", err)
			return 2
		}
		c.done = int(ck.NextSeed - ck.FirstSeed)
		c.sum.Programs, c.sum.Runs, c.sum.Truncated = ck.Programs, ck.Runs, ck.Truncated
		c.sum.Mismatches, c.sum.ShrinkSteps = ck.Mismatches, ck.ShrinkSteps
		c.sum.Artifacts = ck.Artifacts
		c.sum.LastSeed = ck.NextSeed - 1
		if ck.Coverage != nil {
			c.cov.Merge(ck.Coverage)
			c.publishCoverage()
		}
		c.resumed = ck
		if c.flight != nil {
			c.flight.Restore(c.startSeed, ck.NextSeed, ck.FlightEvents, ck.FlightViolations, ck.FlightViolating)
		}
		c.reg.Counter("fuzz.resume.skipped_runs").Add(uint64(ck.Runs))
		if c.ckptPath == "" {
			c.ckptPath = c.resumePath
		}
		fmt.Fprintf(os.Stderr, "tbtso-fuzz: resuming at seed %d (%d/%d programs done, %d pending shrinks)\n",
			ck.NextSeed, c.done, c.n, len(c.pending))
	}

	workers, window := c.cfg.Parallelism()
	c.reg.Gauge("fuzz.campaign.workers").Set(int64(workers))

	// A resumed campaign first drains the shrink queue its checkpoint
	// carried — those mismatches precede every remaining seed, so the
	// artifact order matches an uninterrupted run's.
	if c.drainPending(ctx) && c.done < c.n {
		// One seed-ordered stream over the remaining seeds; the workers
		// keep checking ahead while the fold runs here. The fold shrinks
		// each program's mismatches before the next is folded (shrinking
		// re-runs the failure predicate thousands of times, so it stays
		// off the workers; a signal mid-shrink queues the remainder into
		// the checkpoint instead of finishing it). Stream's count and
		// error need no handling: a campaign cut short leaves c.done < c.n.
		lastCkpt, lastPub := c.done, c.done
		fuzz.Stream(ctx, c.cfg, c.n-c.done, c.startSeed+int64(c.done), func(rep fuzz.Report) bool {
			c.done++
			c.sum.LastSeed = c.startSeed + int64(c.done) - 1
			c.sum.Programs += rep.Programs
			c.sum.Runs += rep.Runs
			c.sum.Truncated += rep.Truncated
			c.sum.Mismatches += len(rep.Mismatches)
			c.cov.Merge(&rep.Coverage)
			if c.done-lastPub >= window {
				c.publish(start)
				lastPub = c.done
			}
			c.pending = append(c.pending, rep.Mismatches...)
			if !c.drainPending(ctx) {
				return false
			}
			if c.ckptPath != "" && c.done-lastCkpt >= c.ckptEvery {
				c.checkpoint(hash)
				lastCkpt = c.done
			}
			return c.budget <= 0 || time.Since(start) <= c.budget
		})
		c.publish(start)
	}
	interrupted := c.done < c.n || len(c.pending) > 0

	// One final checkpoint: on interruption it carries the resume state
	// (cursor + unshrunk queue); on completion it records the campaign
	// as done, so a re-resume is a no-op instead of a rerun.
	c.checkpoint(hash)
	c.sum.ElapsedMS = time.Since(start).Milliseconds()
	if interrupted {
		c.sum.Interrupted = true
		c.sum.Checkpoint = c.ckptPath
		if c.ckptPath != "" {
			fmt.Fprintf(os.Stderr, "tbtso-fuzz: interrupted at seed %d; resume with -resume %s\n",
				c.startSeed+int64(c.done), c.ckptPath)
		} else {
			fmt.Fprintf(os.Stderr, "tbtso-fuzz: interrupted at seed %d; no -ckpt, progress lost\n",
				c.startSeed+int64(c.done))
		}
	}
	emitSummary(c.sum, c.jsonOut)
	if c.metrics {
		c.reg.WriteText(os.Stderr)
	}
	var violations uint64
	if c.flight != nil {
		for _, v := range c.flight.Violations() {
			fmt.Fprintf(os.Stderr, "obs: VIOLATION %s\n", v)
		}
		_, violations = c.flight.Totals()
		if c.flightDir != "" {
			if path, err := c.flight.DumpToFile(c.flightDir, "tbtso-fuzz.campaign"); err != nil {
				fmt.Fprintln(os.Stderr, "tbtso-fuzz: campaign flight dump:", err)
			} else {
				fmt.Fprintln(os.Stderr, "obs: campaign flight artifact:", path)
			}
		}
	}
	if c.sum.Mismatches > 0 || violations > 0 {
		return 1
	}
	return 0
}

type plantedResult struct {
	Name        string `json:"name"`
	Found       bool   `json:"found"`
	Ops         int    `json:"ops"`
	Threads     int    `json:"threads"`
	Delta       int    `json:"delta"`
	Outcome     string `json:"outcome"`
	Policy      string `json:"policy,omitempty"`
	ShrinkSteps int    `json:"shrink_steps"`
	Artifact    string `json:"artifact,omitempty"`
	Error       string `json:"error,omitempty"`
}

func runPlanted(ctx context.Context, cfg fuzz.Config, reg *obs.Registry, outDir string, shrinkMax int, jsonOut, metrics bool) int {
	failed := false
	var results []plantedResult
	for _, pl := range fuzz.PlantedControls() {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "tbtso-fuzz: interrupted; remaining planted controls skipped")
			failed = true
			break
		}
		r := plantedResult{Name: pl.Name, Delta: pl.Delta}
		a, err := fuzz.CheckPlanted(pl, cfg.MaxStates, shrinkMax)
		if err != nil {
			r.Error = err.Error()
			failed = true
			results = append(results, r)
			continue
		}
		p, _ := fuzz.DecodeProgram(a.Program)
		for _, th := range p.Threads {
			r.Ops += len(th)
		}
		r.Found = true
		r.Threads = len(p.Threads)
		r.Delta = a.Delta
		r.Outcome = a.Outcome
		r.Policy = a.Policy
		r.ShrinkSteps = a.ShrinkSteps
		reg.Counter("fuzz.shrink_steps").Add(uint64(a.ShrinkSteps))
		if path, err := writeArtifact(outDir, pl.Name, a); err != nil {
			fmt.Fprintln(os.Stderr, err)
		} else {
			r.Artifact = path
		}
		results = append(results, r)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"planted": results})
	} else {
		for _, r := range results {
			if r.Error != "" {
				fmt.Printf("planted %-10s FAILED: %s\n", r.Name, r.Error)
				continue
			}
			fmt.Printf("planted %-10s found and shrunk to %d ops / %d threads at Δ=%d (witness %s, %d shrink steps)\n",
				r.Name, r.Ops, r.Threads, r.Delta, r.Outcome, r.ShrinkSteps)
		}
	}
	if metrics {
		reg.WriteText(os.Stderr)
	}
	if failed {
		return 1
	}
	return 0
}

func replayArtifact(path string, jsonOut bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer f.Close()
	a, err := fuzz.ReadArtifact(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	repro, err := a.Replay()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if jsonOut {
		json.NewEncoder(os.Stdout).Encode(map[string]any{"kind": a.Kind, "reproduced": repro})
	} else {
		fmt.Printf("%s: reproduced=%v\n", a.Kind, repro)
	}
	if repro {
		return 1 // the bug is still there; mirror the campaign exit code
	}
	return 0
}

// writeArtifact persists the three artifact forms; returns "" (no
// error) when no output directory was requested.
func writeArtifact(dir, name string, a fuzz.Artifact) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := a.WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".go.txt"), []byte(a.GoSource("Shrunk")), 0o644); err != nil {
		return "", err
	}
	if a.Policy != "" {
		tf, err := os.Create(filepath.Join(dir, name+".trace.json"))
		if err != nil {
			return "", err
		}
		if err := a.PerfettoTrace(tf); err != nil {
			tf.Close()
			return "", fmt.Errorf("%s: perfetto trace: %w", name, err)
		}
		if err := tf.Close(); err != nil {
			return "", err
		}
	}
	return path, nil
}

func emitSummary(sum summary, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(sum)
		return
	}
	fmt.Printf("programs %d (seeds %d..%d), machine runs %d, truncated explorations %d, mismatches %d, shrink steps %d, %dms\n",
		sum.Programs, sum.FirstSeed, sum.LastSeed, sum.Runs, sum.Truncated, sum.Mismatches, sum.ShrinkSteps, sum.ElapsedMS)
	for _, p := range sum.Artifacts {
		fmt.Println("artifact:", p)
	}
}
