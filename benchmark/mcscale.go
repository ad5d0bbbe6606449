package main

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"tbtso/internal/machalg"
	"tbtso/internal/mc"
	"tbtso/internal/stats"
)

// mcCell is one certificate-scale exploration of the mc-scale workload,
// with the exact outcome count its gate expects and, for the paper's
// algorithms, the predicate naming an outcome that would break them.
type mcCell struct {
	name     string
	prog     func() mc.Program
	delta    int
	outcomes int
	broken   func(outcome string) bool
}

func ring4() mc.Program {
	var th [][]mc.Op
	for i := range 4 {
		th = append(th, []mc.Op{mc.St(i, 1), mc.St(i, 2), mc.Ld((i+1)%4, 0), mc.Ld((i+3)%4, 1)})
	}
	return mc.Program{Threads: th, Vars: 4, Regs: 2}
}

var mcCells = []mcCell{
	{"ffhp", func() mc.Program { return machalg.MCFFHP(3, 2, 4) }, 3, 5041,
		func(o string) bool { return machalg.MCFFHPMissed(o, 3, 2) }},
	{"ffbl", func() mc.Program { return machalg.MCFFBL(4, 3) }, 2, 816,
		func(o string) bool { return machalg.MCFFBLOverlap(o, 4) }},
	{"ring4_d0", ring4, 0, 5184, nil},
	{"ring4_d2", ring4, 2, 527, nil},
}

// toyCells is the mc-scale cell set at test size.
var toyCells = []string{"ring4_d2"}

const (
	mcMaxStates = 4_000_000
	mcPassS     = 2.0 // nominal seconds per pass at W=2
)

// checkCell is the correctness gate of one exploration.
func checkCell(c mcCell, r cellOut) error {
	switch {
	case r.Err != "":
		return fmt.Errorf("%s: %s", c.name, r.Err)
	case r.Outcomes != c.outcomes:
		return fmt.Errorf("%s: %d outcomes, want %d", c.name, r.Outcomes, c.outcomes)
	case r.Broken > 0:
		return fmt.Errorf("%s: %d outcomes witness a safety violation", c.name, r.Broken)
	}
	return nil
}

// cellOut is one exploration of a pass.
type cellOut struct {
	Name              string `json:"name"`
	NS                int64  `json:"ns"`
	States            int    `json:"states"`
	Transitions       int    `json:"transitions"`
	DedupHits         int    `json:"dedup_hits"`
	PorPrunes         int    `json:"por_prunes"`
	TerminalCollapses int    `json:"terminal_collapses"`
	Outcomes          int    `json:"outcomes"`
	Broken            int    `json:"broken"`
	Err               string `json:"err,omitempty"`
}

// passOut is one mc-pass child's result. The allocation totals are read
// only when the child was asked to (-mem): ReadMemStats stops the world.
// CheckNS is the time the child spent after the loop on the gate's
// safety-witness scan, which is the benchmark's work, not set-up.
type passOut struct {
	LoopNS     int64     `json:"loop_ns"`
	CheckNS    int64     `json:"check_ns"`
	Cells      []cellOut `json:"cells"`
	AllocBytes uint64    `json:"alloc_bytes"`
	Mallocs    uint64    `json:"mallocs"`
	Spans      []span    `json:"spans"`
}

func mcPassChild(args []string) (*passOut, error) {
	fs := flag.NewFlagSet("mc-pass", flag.ContinueOnError)
	names := fs.String("cells", "", "comma-separated cells to explore")
	mem := fs.Bool("mem", false, "report allocation totals")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var cells []mcCell
	for _, name := range strings.Split(*names, ",") {
		i := slices.IndexFunc(mcCells, func(c mcCell) bool { return c.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown cell %q", name)
		}
		cells = append(cells, mcCells[i])
	}
	progs := make([]mc.Program, len(cells))
	for i, c := range cells {
		progs[i] = c.prog()
	}

	out := &passOut{}
	results := make([]mc.Result, len(cells))
	var before, after runtime.MemStats
	if *mem {
		runtime.ReadMemStats(&before)
	}
	rec := &recorder{origin: time.Now()}
	for i, c := range cells {
		t := rec.now()
		res, err := mc.ExploreParallel(progs[i], c.delta, mc.Options{MaxStates: mcMaxStates})
		rec.end("mc.scale."+c.name, 0, t, false, res.States, 0)
		results[i] = res
		co := cellOut{
			Name: c.name, NS: rec.spans[i].Dur, States: res.States, Transitions: res.Transitions,
			DedupHits: res.DedupHits, PorPrunes: res.PorPrunes, TerminalCollapses: res.TerminalCollapses,
			Outcomes: len(res.Outcomes),
		}
		if err != nil {
			co.Err = err.Error()
		}
		out.Cells = append(out.Cells, co)
	}
	out.LoopNS = rec.now()
	rec.end("mc.scale.pass", 0, 0, true, 0, 0)
	if *mem {
		runtime.ReadMemStats(&after)
		out.AllocBytes = after.TotalAlloc - before.TotalAlloc
		out.Mallocs = after.Mallocs - before.Mallocs
	}
	check := time.Now()
	for i, c := range cells {
		if c.broken == nil {
			continue
		}
		for o := range results[i].Outcomes {
			if c.broken(o) {
				out.Cells[i].Broken++
			}
		}
	}
	out.CheckNS = since(check)
	out.Spans = rec.spans
	return out, nil
}

// mcPasses runs n mc-pass children, gating every exploration.
func mcPasses(e *env, res *result, n int, mem bool) ([]passOut, []child, error) {
	names := make([]string, 0, len(mcCells))
	for _, c := range mcCells {
		names = append(names, c.name)
	}
	if e.toy {
		names = toyCells
	}
	args := []string{"-cells", strings.Join(names, ",")}
	if mem {
		args = append(args, "-mem")
	}
	var passes []passOut
	var children []child
	for range n {
		var p passOut
		c, err := runChild(e, "mc-pass", &p, args...)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range p.Cells {
			res.attempted++
			i := slices.IndexFunc(mcCells, func(c mcCell) bool { return c.name == r.Name })
			if err := checkCell(mcCells[i], r); err != nil {
				res.fail("%v", err)
			}
		}
		passes = append(passes, p)
		children = append(children, c)
	}
	for _, r := range passes[0].Cells {
		res.counts[r.Name+".states"] = int64(r.States)
		res.counts[r.Name+".outcomes"] = int64(r.Outcomes)
	}
	return passes, children, nil
}

// explorationsPerS is the median over passes of explorations per second
// of exploring.
func explorationsPerS(passes []passOut) float64 {
	var rates []float64
	for _, p := range passes {
		rates = append(rates, float64(len(p.Cells))/(float64(p.LoopNS)/1e9))
	}
	return stats.Median(rates)
}

func runMCScale(e *env) (*result, error) {
	res := newResult()
	passes, children, err := mcPasses(e, res, e.rounds(mcPassS, 1), false)
	if err != nil {
		return nil, err
	}
	var setups, rss []float64
	for i, c := range children {
		setups = append(setups, c.ready.Seconds()-float64(passes[i].LoopNS+passes[i].CheckNS)/1e9)
		rss = append(rss, c.rssMB)
	}
	res.metrics["work_per_s"] = explorationsPerS(passes)
	res.metrics["setup_s"] = stats.Median(setups)
	res.metrics["peak_rss_mb"] = stats.Median(rss)
	return res, nil
}

// traceMCScale runs half the passes untraced, for the untraced rate and
// CPU time, and half with spans and allocation totals.
func traceMCScale(e *env) (*result, error) {
	start := time.Now()
	res := newResult()
	half := max(e.rounds(mcPassS, 1)/2, 1)
	plain, plainChildren, err := mcPasses(e, res, half, false)
	if err != nil {
		return nil, err
	}
	traced, children, err := mcPasses(e, res, half, true)
	if err != nil {
		return nil, err
	}

	m := res.metrics
	var cpu float64
	for _, c := range plainChildren {
		cpu += c.cpu.Seconds()
	}
	cellS := map[string][]float64{}
	var statesPerS, bytesPerState, allocsPerState []float64
	for i, p := range traced {
		res.spans = append(res.spans, adopt(p.Spans, i+1, children[i].start.Sub(start))...)
		states, ns := 0, int64(0)
		for _, r := range p.Cells {
			states += r.States
			ns += r.NS
			cellS[r.Name] = append(cellS[r.Name], float64(r.NS)/1e9)
		}
		statesPerS = append(statesPerS, float64(states)/(float64(ns)/1e9))
		bytesPerState = append(bytesPerState, float64(p.AllocBytes)/float64(states))
		allocsPerState = append(allocsPerState, float64(p.Mallocs)/float64(states))
	}
	for name, s := range cellS {
		m["mc.scale."+name+".s"] = stats.Median(s)
	}
	var states, transitions, dedup, por, collapses int
	for _, r := range traced[0].Cells {
		states += r.States
		transitions += r.Transitions
		dedup += r.DedupHits
		por += r.PorPrunes
		collapses += r.TerminalCollapses
	}
	m["mc.scale.states"] = float64(states)
	m["mc.scale.states_per_s"] = stats.Median(statesPerS)
	m["mc.scale.bytes_per_state"] = stats.Median(bytesPerState)
	m["mc.scale.allocs_per_state"] = stats.Median(allocsPerState)
	m["mc.dedup_hit_ratio"] = ratio(float64(dedup), float64(transitions))
	m["mc.por_prunes"] = float64(por)
	m["mc.terminal_collapses"] = float64(collapses)
	m["cpu_s"] = cpu
	m["trace.overhead"] = explorationsPerS(plain)/explorationsPerS(traced) - 1
	m["trace.counts_match"] = 1
	for _, p := range append(plain, traced...) {
		for i, r := range p.Cells {
			if ref := plain[0].Cells[i]; r.States != ref.States || r.Outcomes != ref.Outcomes {
				m["trace.counts_match"] = 0
			}
		}
	}
	return res, sbProbe(e, res)
}

// sbProbeOut is the sb-probe child's result.
type sbProbeOut struct {
	FixedUS       float64 `json:"fixed_us"`
	AllocsPerCall float64 `json:"allocs_per_call"`
}

// sbProbeChild measures the fixed cost of one exploration as a campaign
// makes it: ExploreParallel on the 2-thread store-buffering test (32
// states), with the campaign's options.
func sbProbeChild(args []string) (*sbProbeOut, error) {
	fs := flag.NewFlagSet("sb-probe", flag.ContinueOnError)
	calls := fs.Int("calls", 2000, "explorations to time")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	sb := mc.Program{
		Threads: [][]mc.Op{{mc.St(0, 1), mc.Ld(1, 0)}, {mc.St(1, 1), mc.Ld(0, 0)}},
		Vars:    2, Regs: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := mc.Options{MaxStates: maxStates, Context: ctx}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for range *calls {
		if _, err := mc.ExploreParallel(sb, 0, opts); err != nil {
			return nil, err
		}
	}
	el := time.Since(t)
	runtime.ReadMemStats(&after)
	n := float64(*calls)
	return &sbProbeOut{
		FixedUS:       el.Seconds() * 1e6 / n,
		AllocsPerCall: float64(after.Mallocs-before.Mallocs) / n,
	}, nil
}

// sbProbe runs the sb-probe child into the mc.small metrics, which
// every traced run reports.
func sbProbe(e *env, res *result) error {
	calls := 2000
	if e.toy {
		calls = 200
	}
	var p sbProbeOut
	if _, err := runChild(e, "sb-probe", &p, "-calls", strconv.Itoa(calls)); err != nil {
		return err
	}
	res.metrics["mc.small.fixed_us"] = p.FixedUS
	res.metrics["mc.small.allocs_per_call"] = p.AllocsPerCall
	return nil
}
