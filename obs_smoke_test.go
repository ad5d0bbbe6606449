package tbtso_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tbtso/internal/obs/monitor"
)

// runCmdStdout executes a repository binary via `go run` and returns
// stdout alone — stderr carries progress/timing lines that must not
// pollute machine-readable output.
func runCmdStdout(t *testing.T, timeout time.Duration, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	done := make(chan error, 1)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("go run %v: %v\nstderr:\n%s", args, err, stderr.String())
		}
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		t.Fatalf("go run %v timed out after %v", args, timeout)
	}
	return stdout.String()
}

// smokeTraceEvent is the trace-event JSON shape the viewers require.
type smokeTraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Args map[string]any `json:"args"`
}

// checkTraceShape validates a written trace file: parseable, every
// event carries ph/pid/tid, thread metadata is present, and the
// store→commit flow arrows are balanced.
func checkTraceShape(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []smokeTraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not parse as JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var stores, commits, flowS, flowF, procMeta int
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d missing ph/pid/tid: %+v", i, ev)
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procMeta++
			}
		case "s":
			flowS++
		case "f":
			flowF++
		case "X":
			switch ev.Cat {
			case "store":
				stores++
			case "commit":
				commits++
				if c, ok := ev.Args["cause"].(string); !ok || c == "" {
					t.Fatalf("commit event %d missing drain cause: %+v", i, ev)
				}
			}
		}
	}
	if procMeta == 0 {
		t.Error("no process_name metadata event")
	}
	if stores == 0 || stores != commits {
		t.Errorf("%d store slices vs %d commit slices", stores, commits)
	}
	if flowS != flowF || flowS != stores {
		t.Errorf("flow arrows unbalanced: %d starts, %d finishes, %d stores", flowS, flowF, stores)
	}
}

// TestTraceCLI exercises tbtso-sim's -o export in demo and litmus
// modes and validates the written Perfetto JSON shape.
func TestTraceCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke takes a few seconds; skipped with -short")
	}
	t.Run("demo-reclaim", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "trace.json")
		stdout := runCmdStdout(t, 2*time.Minute, "./cmd/tbtso-sim", "-demo", "reclaim", "-o", out)
		for _, want := range []string{"traced reclaim race", "wrote", "metrics:", "machine.commits"} {
			if !strings.Contains(stdout, want) {
				t.Fatalf("output missing %q:\n%s", want, stdout)
			}
		}
		checkTraceShape(t, out)
	})
	t.Run("litmus-sb", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "trace.json")
		stdout := runCmdStdout(t, 2*time.Minute,
			"./cmd/tbtso-sim", "-test", "sb", "-delta", "40", "-seeds", "5", "-o", out)
		for _, want := range []string{"SB  [Δ=40]", "trace (seed 0, adversarial)", "wrote", "machine.commits"} {
			if !strings.Contains(stdout, want) {
				t.Fatalf("output missing %q:\n%s", want, stdout)
			}
		}
		checkTraceShape(t, out)
	})
}

// TestBenchJSON runs the acceptance invocation and checks the figure
// series parse with consistent row/header arity.
func TestBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke takes a few seconds; skipped with -short")
	}
	stdout := runCmdStdout(t, 3*time.Minute,
		"./cmd/tbtso-bench", "-figure", "fig6", "-quick", "-json")
	var doc struct {
		Figures []struct {
			Title   string     `json:"title"`
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"figures"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(doc.Figures) != 1 {
		t.Fatalf("expected 1 figure, got %d", len(doc.Figures))
	}
	f := doc.Figures[0]
	if !strings.Contains(f.Title, "Figure 6") {
		t.Errorf("unexpected title %q", f.Title)
	}
	if len(f.Rows) == 0 {
		t.Fatal("figure has no rows")
	}
	for i, r := range f.Rows {
		if len(r) != len(f.Headers) {
			t.Fatalf("row %d has %d cells for %d headers", i, len(r), len(f.Headers))
		}
	}
}

// TestSimPlantedFlightDump runs the planted control docs/OBSERVABILITY.md
// advertises: the §4 reclaim demo's unsound rows break a residency bound
// of 8 ticks, so tbtso-sim must exit 1 and dump the demo, recorded as
// one flight group, with its exact event and violation counts — the
// same on every run.
func TestSimPlantedFlightDump(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke takes a few seconds; skipped with -short")
	}
	for run := 0; run < 3; run++ {
		dir := t.TempDir()
		out, code := runExit(t, "./cmd/tbtso-sim", "-demo", "reclaim", "-obs.monitor", "residency=8", "-obs.flightdir", dir)
		if code != 1 {
			t.Fatalf("run %d: exit %d, want 1:\n%s", run, code, out)
		}
		f, err := os.Open(filepath.Join(dir, "tbtso-sim.flight.json"))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		doc, err := monitor.ReadCampaignFlightDump(f)
		f.Close()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if doc.TotalEvents != 689 || doc.TotalViolations != 4 || len(doc.Groups) != 1 {
			t.Fatalf("run %d: %d events, %d violations, %d groups; want 689, 4, 1",
				run, doc.TotalEvents, doc.TotalViolations, len(doc.Groups))
		}
	}
}
