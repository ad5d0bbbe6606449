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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// figure is one table tbtso-bench regenerates. The table below is the
// only list of figures: the -figure help, -list, dispatch and "all"
// are all read from it.
type figure struct {
	name  string
	doc   string
	inAll bool // part of -figure all
	table func(bench.Options) *report.Table
	// csvTail, when set, prints extra CSV series after the table under
	// -csv.
	csvTail func(w io.Writer)
}

var figures = []figure{
	{name: "4", doc: "quiescence latency vs quiescing threads (§6.1.2, timing model)", inAll: true, table: bench.Figure4},
	{name: "5", doc: "store-buffering time CDF by placement (§6.1.2, timing model)", inAll: true, table: bench.Figure5, csvTail: figure5CDF},
	{name: "bailout", doc: "§6.1 hardware design validation (τ timeout + quiescence)", inAll: true, table: bench.Bailout},
	{name: "6", doc: "hash-table throughput per SMR scheme (§7.1)", inAll: true, table: bench.Figure6},
	{name: "scaling", doc: "figure 6's thread-count axis (read-only, L=4)", table: bench.Figure6Scaling},
	{name: "7", doc: "peak retired-node memory vs reader stall (§7.1.2)", inAll: true, table: bench.Figure7},
	{name: "8", doc: "biased-lock throughput per access pattern (§7.2)", inAll: true, table: bench.Figure8},
	{name: "rwlock", doc: "extension: passive RW lock vs sync.RWMutex", table: bench.RWLock},
	{name: "machine6", doc: "abstract-machine lookup cost model (no-protection / FFHP / HP)", table: bench.MachineCost},
	{name: "mc", doc: "model-checker explorer engines: states, time, speedup (BENCH_mc.json)", table: bench.MCExplorer},
	{name: "sizing", doc: "§4.2.1 retirement-rate and R sizing numbers", inAll: true,
		table: func(o bench.Options) *report.Table { t, _ := bench.Sizing(o); return t }},
}

// figure5CDF prints Figure 5's raw idle-load CDF series as CSV.
func figure5CDF(w io.Writer) {
	for _, pl := range []quiesce.Placement{quiesce.PlacementSMT, quiesce.PlacementSameSocket, quiesce.PlacementCrossSocket} {
		fmt.Fprintf(w, "# CDF %v/idle\n", pl)
		for _, p := range bench.Figure5CDF(pl, quiesce.LoadIdle, 500_000) {
			fmt.Fprintf(w, "%d,%.6f\n", p.Value, p.Fraction)
		}
	}
}

// allFigures returns the names -figure all runs, in table order.
func allFigures() []string {
	var names []string
	for _, f := range figures {
		if f.inAll {
			names = append(names, f.name)
		}
	}
	return names
}

// selectFigures resolves a -figure value (a comma list, or "all") to
// table entries. The numbered figures also answer to "fig6" and
// "figure6".
func selectFigures(spec string) ([]figure, error) {
	names := strings.Split(spec, ",")
	if spec == "all" {
		names = allFigures()
	}
	var out []figure
	for _, name := range names {
		name = strings.TrimSpace(name)
		short := strings.TrimPrefix(strings.TrimPrefix(name, "figure"), "fig")
		i := slices.IndexFunc(figures, func(f figure) bool { return f.name == short })
		if i < 0 {
			return nil, fmt.Errorf("unknown figure %q", name)
		}
		out = append(out, figures[i])
	}
	return out, nil
}

// run is the whole program; main's os.Exit is the single exit point, so
// the deferred teardowns — CPU/heap profile flush, obs session finish —
// run on every path. The old structure os.Exit'ed from inside the
// profiled region, losing profiles and skipping the obs teardown.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("tbtso-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, f := range figures {
		names = append(names, f.name)
	}
	var (
		which   = fs.String("figure", "all", "which figures to regenerate, as a comma list: "+strings.Join(names, ", ")+", or all")
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
		return runCompare(stdout, stderr, *compare, fs.Arg(0), bench.CompareOptions{TimeRatio: *cmpTime, StatesRatio: *cmpStat})
	}

	if *list {
		fmt.Fprintln(stdout, "figures:")
		for _, f := range figures {
			fmt.Fprintf(stdout, "  %-8s %s\n", f.name, f.doc)
		}
		fmt.Fprintf(stdout, "  %-8s %s\n", "all", strings.Join(allFigures(), ", "))
		return 0
	}
	selected, err := selectFigures(*which)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ctx, stop := cli.SignalContext(context.Background(), stderr)
	defer stop()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
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
		fmt.Fprintf(stderr, "obs: %v\n", err)
		return 2
	}
	defer func() {
		sess.FinishContext(ctx, stderr, "tbtso-bench") // no flight: never a violation
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
			t.CSV(stdout)
		default:
			t.Render(stdout)
		}
	}

	for _, f := range selected {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "tbtso-bench: interrupted; remaining figures skipped")
			break
		}
		start := time.Now()
		emit(f.table(o))
		if *csv && f.csvTail != nil {
			f.csvTail(stdout)
		}
		fmt.Fprintf(stderr, "[figure %s took %v]\n", f.name, time.Since(start).Round(time.Millisecond))
	}

	if *jsonOut {
		if err := obs.EncodeDoc(stdout, map[string]any{"figures": figures}); err != nil {
			fmt.Fprintf(stderr, "encoding figures: %v\n", err)
			return 1
		}
	}
	if *metrics {
		sess.Registry.WriteText(stderr)
	}
	return 0
}

// runCompare diffs the candidate figure-JSON document against the
// baseline and reports regressions; it returns the process exit code.
func runCompare(stdout, stderr io.Writer, baselinePath, candidatePath string, opts bench.CompareOptions) int {
	if candidatePath == "" {
		fmt.Fprintln(stderr, "usage: tbtso-bench -compare baseline.json candidate.json")
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
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	candidate, err := read(candidatePath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	regs, err := bench.Compare(baseline, candidate, opts)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "compare: %s vs %s: no regressions\n", baselinePath, candidatePath)
		return 0
	}
	for _, r := range regs {
		fmt.Fprintf(stdout, "REGRESSION %s\n", r)
	}
	fmt.Fprintf(stdout, "compare: %d regressions\n", len(regs))
	return 1
}
