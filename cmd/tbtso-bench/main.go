// Command tbtso-bench regenerates the paper's evaluation figures:
//
//	tbtso-bench -figure all            # every figure, default sizes
//	tbtso-bench -figure 6 -quick       # Figure 6 at CI scale
//	tbtso-bench -figure 8 -dur 2s      # longer cells
//	tbtso-bench -figure 5 -csv         # raw CDF series as CSV
//	tbtso-bench -figure fig6 -json     # machine-readable figure series
//	tbtso-bench -figure sizing         # the §4.2.1 sizing numbers
//
// The absolute numbers come from this machine and Go's runtime, not the
// paper's Westmere-EX testbed; EXPERIMENTS.md documents the shape
// comparison per figure.
//
// A first SIGINT/SIGTERM stops at the next figure cell: completed rows
// are emitted (stamped INTERRUPTED), profiles flush, the ops endpoint
// stops, and the exit code is 130; a second signal hard-exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tbtso/internal/bench"
	"tbtso/internal/cli"
	"tbtso/internal/obs"
	"tbtso/internal/obs/serve"
	"tbtso/internal/quiesce"
	"tbtso/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program; main's os.Exit is the single exit point, so
// the deferred teardowns — CPU/heap profile flush, obs session finish —
// run on every path. The old structure os.Exit'ed from inside the
// profiled region, losing profiles and skipping the obs teardown.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("tbtso-bench", flag.ContinueOnError)
	var (
		figure  = fs.String("figure", "all", "which figure to regenerate: 4, 5, 6, 7, 8, bailout, scaling, rwlock, sizing, or all")
		list    = fs.Bool("list", false, "list the available figures and exit")
		quick   = fs.Bool("quick", false, "CI-scale run sizes")
		dur     = fs.Duration("dur", 0, "measurement duration per cell (default 400ms, quick 80ms)")
		threads = fs.Int("threads", 0, "worker threads (default GOMAXPROCS)")
		buckets = fs.Int("buckets", 0, "hash table buckets (default 1024, quick 128)")
		runs    = fs.Int("runs", 0, "repetitions per cell, median reported (default 3, quick 1)")
		mcMax   = fs.Int("mcmaxstates", 0, "-figure mc: state budget per exploration (default mc.DefaultMaxStates); low budgets render (truncated) rows")
		csv     = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut = fs.Bool("json", false, `emit all figures as one JSON document ({"figures": [...]})`)
		metrics = fs.Bool("metrics", false, "print the harness metrics registry to stderr after the run")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
		compare = fs.String("compare", "", "compare this baseline figure-JSON document against the candidate document named by the positional argument and exit non-zero on regression")
		cmpTime = fs.Float64("compare.time", 0, "time-regression ratio for -compare (default 2.0)")
		cmpStat = fs.Float64("compare.states", 0, "states-regression ratio for -compare (default 1.5)")
	)
	var obsOpts serve.Options
	obsOpts.RegisterEndpoint(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare != "" {
		return runCompare(*compare, fs.Arg(0), bench.CompareOptions{TimeRatio: *cmpTime, StatesRatio: *cmpStat})
	}

	if *list {
		fmt.Println("figures:")
		fmt.Println("  4        quiescence latency vs quiescing threads (§6.1.2, timing model)")
		fmt.Println("  5        store-buffering time CDF by placement (§6.1.2, timing model)")
		fmt.Println("  bailout  §6.1 hardware design validation (τ timeout + quiescence)")
		fmt.Println("  6        hash-table throughput per SMR scheme (§7.1)")
		fmt.Println("  scaling  figure 6's thread-count axis (read-only, L=4)")
		fmt.Println("  7        peak retired-node memory vs reader stall (§7.1.2)")
		fmt.Println("  8        biased-lock throughput per access pattern (§7.2)")
		fmt.Println("  rwlock   extension: passive RW lock vs sync.RWMutex")
		fmt.Println("  machine6 abstract-machine lookup cost model (no-protection / FFHP / HP)")
		fmt.Println("  mc       model-checker explorer engines: states, time, speedup (BENCH_mc.json)")
		fmt.Println("  sizing   §4.2.1 retirement-rate and R sizing numbers")
		fmt.Println("  all      4, 5, bailout, 6, 7, 8, sizing")
		return 0
	}

	ctx, stop := cli.SignalContext(context.Background(), os.Stderr)
	defer stop()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	o := bench.Options{
		Duration:    *dur,
		Threads:     *threads,
		Buckets:     *buckets,
		Runs:        *runs,
		Quick:       *quick,
		MCMaxStates: *mcMax,
		Context:     ctx,
	}
	sess, err := obsOpts.Start(nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return 1
	}
	defer func() {
		sess.FinishContext(ctx, os.Stderr, "tbtso-bench") // no flight: never a violation
		code = cli.ExitCode(ctx, code)
	}()
	// The harness metrics feed the live ops endpoint; -metrics
	// additionally prints them at exit.
	o.Metrics = sess.Registry

	// With -json, tables are collected and emitted as one document at
	// the end; progress/timing stays on stderr so stdout parses clean.
	var figures []*report.Table
	emit := func(t *report.Table) {
		switch {
		case *jsonOut:
			figures = append(figures, t)
		case *csv:
			t.CSV(os.Stdout)
		default:
			t.Render(os.Stdout)
		}
	}

	runFigure := func(name string) bool {
		start := time.Now()
		// Accept "fig6"/"figure6" spellings for the numbered figures.
		name = strings.TrimPrefix(strings.TrimPrefix(name, "figure"), "fig")
		switch name {
		case "4":
			emit(bench.Figure4(o))
		case "5":
			emit(bench.Figure5(o))
			if *csv {
				for _, pl := range []quiesce.Placement{quiesce.PlacementSMT, quiesce.PlacementSameSocket, quiesce.PlacementCrossSocket} {
					fmt.Printf("# CDF %v/idle\n", pl)
					for _, p := range bench.Figure5CDF(pl, quiesce.LoadIdle, 500_000) {
						fmt.Printf("%d,%.6f\n", p.Value, p.Fraction)
					}
				}
			}
		case "6":
			emit(bench.Figure6(o))
		case "7":
			emit(bench.Figure7(o))
		case "8":
			emit(bench.Figure8(o))
		case "sizing":
			t, _ := bench.Sizing(o)
			emit(t)
		case "bailout":
			emit(bench.Bailout(o))
		case "scaling":
			emit(bench.Figure6Scaling(o))
		case "rwlock":
			emit(bench.RWLock(o))
		case "machine6":
			emit(bench.MachineCost(o))
		case "mc":
			emit(bench.MCExplorer(o))
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", name)
			return false
		}
		fmt.Fprintf(os.Stderr, "[figure %s took %v]\n", name, time.Since(start).Round(time.Millisecond))
		return true
	}

	names := strings.Split(*figure, ",")
	if *figure == "all" {
		names = []string{"4", "5", "bailout", "6", "7", "8", "sizing"}
	}
	for _, f := range names {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "tbtso-bench: interrupted; remaining figures skipped")
			break
		}
		if !runFigure(strings.TrimSpace(f)) {
			return 2
		}
	}

	if *jsonOut {
		if err := obs.EncodeDoc(os.Stdout, map[string]any{"figures": figures}); err != nil {
			fmt.Fprintf(os.Stderr, "encoding figures: %v\n", err)
			return 1
		}
	}
	if *metrics {
		sess.Registry.WriteText(os.Stderr)
	}
	return 0
}

// runCompare diffs the candidate figure-JSON document against the
// baseline and reports regressions; it returns the process exit code.
func runCompare(baselinePath, candidatePath string, opts bench.CompareOptions) int {
	if candidatePath == "" {
		fmt.Fprintln(os.Stderr, "usage: tbtso-bench -compare baseline.json candidate.json")
		return 2
	}
	read := func(path string) (*bench.FigureDoc, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bench.ReadFigureDoc(f)
	}
	baseline, err := read(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	candidate, err := read(candidatePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	regs, err := bench.Compare(baseline, candidate, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	if len(regs) == 0 {
		fmt.Printf("compare: %s vs %s: no regressions\n", baselinePath, candidatePath)
		return 0
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	fmt.Printf("compare: %d regressions\n", len(regs))
	return 1
}
