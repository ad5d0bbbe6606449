// Command benchmark is the repository's end-to-end benchmark. One run
// measures one workload and prints two JSON lines on standard output:
// a provenance stamp, then the result with every metric by name and
// unit. The metric lists and units come from BENCHMARK.json, read from
// the working directory.
//
//	bash benchmark/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) is a separate run that times the calls into each layer
// from the benchmark's own code, reports the per-layer metrics and
// writes the spans as a Chrome trace-event file. Measured work always
// runs in child processes with GOMAXPROCS=W, W = min(nproc, 4), one
// child at a time, so the kernel's per-child accounting (peak RSS, CPU
// time) belongs to the workload alone. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// childEnv marks a process as one of the benchmark's own children; its
// value names the child's job (see childMain).
const childEnv = "TBTSO_BENCH_CHILD"

func main() {
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(childMain(job, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every workload needs to know about the run.
type env struct {
	seed    int64
	seconds float64
	w       int    // children's GOMAXPROCS and campaign workers
	fuzzBin string // the tbtso-fuzz binary
	self    string // this executable, re-run for in-process children
	toy     bool   // tiny sizes, for the package's tests
}

// rounds is how many fixed-size rounds of nominal seconds each fit in
// the run's measured time, at least least.
func (e *env) rounds(nominal float64, least int) int {
	return max(int(math.Round(e.seconds/nominal)), least)
}

// result is what a workload measured. Metrics are keyed by the names in
// BENCHMARK.json; counts are exact, host-independent totals that go
// into the provenance line.
type result struct {
	attempted int
	problems  []string // one per failed item: a failed correctness gate
	metrics   map[string]float64
	counts    map[string]int64
	spans     []span
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, counts: map[string]int64{}}
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// namedWorkload is one input set with its untraced and traced runs.
type namedWorkload struct {
	name  string
	run   func(*env) (*result, error)
	trace func(*env) (*result, error)
}

var workloads = []namedWorkload{
	{"campaign", campaignFull.run, campaignFull.trace},
	{"campaign-tso", campaignTSO.run, campaignTSO.trace},
	{"mc-scale", runMCScale, traceMCScale},
	{"paper", runPaper, tracePaper},
}

func lookupWorkload(name string) (namedWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return namedWorkload{}, false
}

// metricSpec and benchSpec are the parts of BENCHMARK.json the
// benchmark reads.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the listed metrics out of what a workload
// computed. Every end-to-end metric must have been computed; a
// per-layer metric of a layer the workload never calls reads 0
// (zeroMissing). A computed metric the list does not name is an error,
// so a misspelt name cannot go unnoticed.
func selectMetrics(list []metricSpec, computed map[string]float64, zeroMissing bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := computed[m.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range computed {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured metric %s is not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// provenance stamps every output with where and how it was measured.
type provenance struct {
	Host       string           `json:"host"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"` // the children's
	W          int              `json:"w"`
	Go         string           `json:"go"`
	Revision   string           `json:"revision"`
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	BuildS     *float64         `json:"build_s,omitempty"`
	Counts     map[string]int64 `json:"counts"`
	TraceFile  string           `json:"trace_file,omitempty"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is the whole program; it returns the exit code: 0 when every
// correctness gate held, 1 when one failed (the result line then says
// "correct": false), 2 when the run could not be made.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign, campaign-tso, mc-scale or paper")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "measured time the run's fixed work is sized for")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a Chrome trace")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description naming the metrics and their units")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the tbtso-fuzz binary")
	buildNS := fs.Int64("build-ns", -1, "time spent building the binaries, stamped into the provenance line")
	revision := fs.String("revision", "unknown", "VCS revision of the source tree, stamped into the provenance line")
	toy := fs.Bool("toy", false, "tiny sizes, for the package's tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		return fail(errors.New("-seconds must be at least 1"))
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	fuzzBin, err := filepath.Abs(filepath.Join(*bin, "tbtso-fuzz"))
	if err != nil {
		return fail(err)
	}
	e := &env{
		seed: *seed, seconds: float64(*seconds), w: min(runtime.NumCPU(), 4),
		fuzzBin: fuzzBin, self: self, toy: *toy,
	}

	traced := *trace == 1
	runFn, list := wl.run, spec.EndToEnd
	if traced {
		runFn, list = wl.trace, spec.PerLayer
	}
	res, err := runFn(e)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", wl.name, err))
	}
	metrics, err := selectMetrics(list, res.metrics, traced)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", wl.name, err))
	}

	host, _ := os.Hostname() // an empty host name is still a valid stamp
	prov := provenance{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: e.w, W: e.w,
		Go: runtime.Version(), Revision: *revision,
		Workload: wl.name, Seed: e.seed, Seconds: e.seconds, Traced: traced,
		Counts: res.counts,
	}
	if *buildNS >= 0 {
		s := float64(*buildNS) / 1e9
		prov.BuildS = &s
	}
	if traced {
		prov.TraceFile = *traceOut
		if prov.TraceFile == "" {
			prov.TraceFile = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", wl.name, e.seed))
		}
		if err := writeChromeTrace(prov.TraceFile, res.spans, prov); err != nil {
			return fail(err)
		}
	}

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		return fail(err)
	}
	out := output{
		Correct: len(res.problems) == 0, Attempted: res.attempted,
		Failed: len(res.problems), Metrics: metrics,
	}
	if err := enc.Encode(out); err != nil {
		return fail(err)
	}
	if len(res.problems) > 0 {
		fmt.Fprintf(stderr, "benchmark: %s: %d correctness gate(s) failed:\n  %s\n",
			wl.name, len(res.problems), strings.Join(res.problems, "\n  "))
		return 1
	}
	return 0
}

// childMain runs one of the benchmark's own child jobs and prints its
// result as one JSON line.
func childMain(job string, args []string, stdout, stderr io.Writer) int {
	var (
		out any
		err error
	)
	switch job {
	case "shadow":
		out, err = shadowChild(args)
	case "mc-pass":
		out, err = mcPassChild(args)
	case "paper-round":
		out, err = paperRoundChild(args)
	case "sb-probe":
		out, err = sbProbeChild(args)
	default:
		err = fmt.Errorf("unknown child job %q", job)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark child %s: %v\n", job, err)
		return 1
	}
	return 0
}

// since is the nanoseconds elapsed from t, the unit spans and loop
// times travel in.
func since(t time.Time) int64 { return int64(time.Since(t)) }
