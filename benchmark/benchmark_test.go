package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark's own
// children, which the runs under test start by re-running themselves.
func TestMain(m *testing.M) {
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(childMain(job, os.Args[1:], os.Stdout, os.Stderr))
	}
	code := m.Run()
	if fuzzBuild.dir != "" {
		os.RemoveAll(fuzzBuild.dir)
	}
	os.Exit(code)
}

const specFile = "../BENCHMARK.json"

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fuzzBuild is the tbtso-fuzz CLI, built once for the package's tests.
var fuzzBuild struct {
	sync.Once
	dir string
	err error
}

// buildFuzz returns the directory holding the built tbtso-fuzz CLI.
func buildFuzz(t *testing.T) string {
	t.Helper()
	fuzzBuild.Do(func() {
		if fuzzBuild.dir, fuzzBuild.err = os.MkdirTemp("", "tbtso-fuzz"); fuzzBuild.err != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", fuzzBuild.dir, "tbtso/cmd/tbtso-fuzz").CombinedOutput()
		if err != nil {
			fuzzBuild.err = fmt.Errorf("build tbtso-fuzz: %v\n%s", err, out)
		}
	})
	if fuzzBuild.err != nil {
		t.Fatal(fuzzBuild.err)
	}
	return fuzzBuild.dir
}

// runToy runs the benchmark at toy size and returns its exit code and
// decoded result line.
func runToy(t *testing.T, bin string, args ...string) (int, output) {
	t.Helper()
	args = append([]string{"-toy", "-seconds", "1", "-spec", specFile, "-bin", bin,
		"-trace-out", filepath.Join(t.TempDir(), "trace.json")}, args...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	var out output
	if lines := strings.Split(strings.TrimSpace(stdout.String()), "\n"); len(lines) == 2 {
		if err := json.Unmarshal([]byte(lines[1]), &out); err != nil {
			t.Fatalf("result line: %v", err)
		}
	} else if code != 2 {
		t.Fatalf("want a provenance and a result line, got:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
	return code, out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecMatchesWorkloads(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range s.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	seen := map[string]bool{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %q (unit %q)", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
}

// checkMetrics asserts the result carries exactly the listed metrics,
// each with its listed unit.
func checkMetrics(t *testing.T, out output, list []metricSpec) {
	t.Helper()
	if len(out.Metrics) != len(list) {
		t.Errorf("%d metrics, want %d", len(out.Metrics), len(list))
	}
	for _, m := range list {
		v, ok := out.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
		}
	}
}

// TestToyRuns runs every workload untraced and traced at toy size.
func TestToyRuns(t *testing.T) {
	s := loadSpec(t)
	bin := buildFuzz(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, out := runToy(t, bin, "-workload", w.name, "-trace", "0")
			if code != 0 || !out.Correct || out.Attempted < 1 || out.Failed != 0 {
				t.Fatalf("untraced: exit %d, result %+v", code, out)
			}
			checkMetrics(t, out, s.EndToEnd)
			for _, m := range s.EndToEnd {
				if v := out.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}
			code, out = runToy(t, bin, "-workload", w.name, "-trace", "1")
			if code != 0 || !out.Correct {
				t.Fatalf("traced: exit %d, result %+v", code, out)
			}
			checkMetrics(t, out, s.PerLayer)
			if v := out.Metrics["trace.counts_match"].Value; v != 1 {
				t.Errorf("trace.counts_match = %v", v)
			}
		})
	}
}

// TestLayersCovered asserts that every per-layer metric is measured by
// at least one workload's traced run, so none is a zero by misspelling.
func TestLayersCovered(t *testing.T) {
	s := loadSpec(t)
	e := &env{seed: 1, seconds: 1, w: 2, fuzzBin: filepath.Join(buildFuzz(t), "tbtso-fuzz"), toy: true}
	var err error
	if e.self, err = os.Executable(); err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, c := range mcCells {
		if !slices.Contains(toyCells, c.name) {
			measured["mc.scale."+c.name+".s"] = true // explored only at full size
		}
	}
	for _, w := range workloads {
		res, err := w.trace(e)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for name := range res.metrics {
			measured[name] = true
		}
		if w.name == "campaign" {
			checkSelfTimes(t, res.spans)
		}
	}
	for _, m := range s.PerLayer {
		if !measured[m.Name] {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
}

// checkSelfTimes asserts the layers' self times, the roots' own time
// included, add up to the roots' durations within 5%.
func checkSelfTimes(t *testing.T, spans []span) {
	t.Helper()
	layers, busy := selfTimes(spans)
	var self, roots int64
	for _, l := range layers {
		self += l.self
	}
	for _, s := range spans {
		if s.Root {
			roots += s.Dur
		}
	}
	if roots == 0 || busy != roots {
		t.Fatalf("busy %d, root spans %d", busy, roots)
	}
	if d := float64(self-roots) / float64(roots); d < -0.05 || d > 0.05 {
		t.Errorf("self times add up to %d ns, root spans to %d ns", self, roots)
	}
	if l := layers["campaign.program"]; l == nil || l.self < 0 {
		t.Errorf("campaign.program self time %+v", l)
	}
}

// TestGatesFail plants a failure of each kind and asserts the run fails.
func TestGatesFail(t *testing.T) {
	t.Run("cli-mismatch", func(t *testing.T) {
		bin := t.TempDir()
		fake := `#!/bin/sh
echo '{"programs": 6, "runs": 162, "truncated": 0, "mismatches": 1, "first_seed": 1, "last_seed": 6, "elapsed_ms": 10}'
exit 1
`
		if err := os.WriteFile(filepath.Join(bin, "tbtso-fuzz"), []byte(fake), 0o755); err != nil {
			t.Fatal(err)
		}
		code, out := runToy(t, bin, "-workload", "campaign")
		if code != 1 || out.Correct || out.Failed == 0 {
			t.Fatalf("exit %d, result %+v; want a failed gate", code, out)
		}
	})
	t.Run("outcome-count", func(t *testing.T) {
		i := len(mcCells) - 1 // ring4_d2, the toy cell
		defer func(n int) { mcCells[i].outcomes = n }(mcCells[i].outcomes)
		mcCells[i].outcomes++
		code, out := runToy(t, t.TempDir(), "-workload", "mc-scale")
		if code != 1 || out.Correct || out.Failed == 0 {
			t.Fatalf("exit %d, result %+v; want a failed gate", code, out)
		}
	})
	t.Run("safety-witness", func(t *testing.T) {
		if err := checkCell(mcCells[0], cellOut{Name: "ffhp", Outcomes: 5041, Broken: 1}); err == nil {
			t.Fatal("an outcome witnessing a hazard miss passed the gate")
		}
	})
}

func TestChunkGate(t *testing.T) {
	ok := cliSummary{Programs: 4, FirstSeed: 5, LastSeed: 8}
	if err := checkChunk(nil, nil, ok, 5, 4); err != nil {
		t.Fatalf("clean summary failed the gate: %v", err)
	}
	for name, sum := range map[string]cliSummary{
		"short":       {Programs: 3, FirstSeed: 5, LastSeed: 7},
		"seeds":       {Programs: 4, FirstSeed: 6, LastSeed: 9},
		"interrupted": {Programs: 4, FirstSeed: 5, LastSeed: 8, Interrupted: true},
	} {
		if err := checkChunk(nil, nil, sum, 5, 4); err == nil {
			t.Errorf("%s summary passed the gate", name)
		}
	}
}

func TestBarrierModel(t *testing.T) {
	// One batch of w*4 = 8 seeds on 2 workers: one takes the 8-unit
	// program, the other the seven 1-unit ones, so the batch lasts 8
	// units and 1 of 16 worker units idles at the barrier.
	dur := map[int64]int64{1: 8, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
	if idle, wall := barrierModel(dur, []int64{1}, 8, 2); idle != 1.0/16 || wall != 8 {
		t.Fatalf("idle share %v, wall %d; want 1/16, 8", idle, wall)
	}
}
