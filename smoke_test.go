package tbtso_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runCmd executes a repository binary via `go run` and returns its
// combined output.
func runCmd(t *testing.T, timeout time.Duration, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		t.Fatalf("go run %v timed out after %v", args, timeout)
	}
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// runExit builds a repository command into a temporary directory and
// runs it with args, returning its combined output and exit status —
// `go run` reports every failure as status 1, so checks of a specific
// exit code need the binary itself.
func runExit(t *testing.T, pkg string, args ...string) (string, int) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &ee):
		return string(out), ee.ExitCode()
	}
	t.Fatalf("%s %v: %v", pkg, args, err)
	return "", 0
}

// TestExamplesRun executes every example end to end and checks its
// success line — the examples are living documentation and must not
// rot.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples take a few seconds; skipped with -short")
	}
	cases := []struct {
		pkg  string
		want string
	}{
		{"./examples/quickstart", "no use-after-free detected"},
		{"./examples/litmus", "the store buffer at work"},
		{"./examples/biasedlock", "max rotation wait"},
		{"./examples/reclamation", "trade-off"},
		{"./examples/workstealing", "every task ran exactly once"},
		{"./examples/rwcache", "consistent snapshot"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.pkg, "./examples/"), func(t *testing.T) {
			out := runCmd(t, 3*time.Minute, tc.pkg)
			if !strings.Contains(out, tc.want) {
				t.Fatalf("%s output missing %q:\n%s", tc.pkg, tc.want, out)
			}
		})
	}
}

// TestCLIsRun exercises the two command-line tools' main modes.
func TestCLIsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke takes a few seconds; skipped with -short")
	}
	t.Run("sim-litmus", func(t *testing.T) {
		out := runCmd(t, 2*time.Minute, "./cmd/tbtso-sim", "-test", "SB", "-seeds", "20")
		if !strings.Contains(out, "store buffering") {
			t.Fatalf("unexpected output:\n%s", out)
		}
		if strings.Contains(out, "FORBIDDEN") {
			t.Fatalf("litmus run reported a forbidden outcome:\n%s", out)
		}
	})
	t.Run("sim-demo-reclaim", func(t *testing.T) {
		out := runCmd(t, 2*time.Minute, "./cmd/tbtso-sim", "-demo", "reclaim")
		if strings.Count(out, "USE-AFTER-FREE") != 3 || strings.Count(out, "SAFE") != 2 {
			t.Fatalf("reclaim matrix wrong:\n%s", out)
		}
	})
	t.Run("sim-demo-deque", func(t *testing.T) {
		out := runCmd(t, 2*time.Minute, "./cmd/tbtso-sim", "-demo", "deque")
		if strings.Count(out, "BROKEN") != 2 || strings.Count(out, "exact-once") != 2 {
			t.Fatalf("deque matrix wrong:\n%s", out)
		}
	})
	t.Run("sim-exhaustive", func(t *testing.T) {
		out := runCmd(t, 2*time.Minute, "./cmd/tbtso-sim", "-exhaustive")
		if strings.Count(out, "PROVEN IMPOSSIBLE") != 2 {
			t.Fatalf("exhaustive mode wrong:\n%s", out)
		}
	})
	t.Run("bench-quick", func(t *testing.T) {
		out := runCmd(t, 3*time.Minute, "./cmd/tbtso-bench", "-figure", "4,5,bailout,sizing", "-quick")
		for _, want := range []string{"Figure 4", "Figure 5", "§6.1 design", "sizing"} {
			if !strings.Contains(out, want) {
				t.Fatalf("bench output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("bench-csv", func(t *testing.T) {
		out := runCmd(t, 2*time.Minute, "./cmd/tbtso-bench", "-figure", "4", "-quick", "-csv")
		if !strings.Contains(out, "threads,quiesce avg") {
			t.Fatalf("CSV output wrong:\n%s", out)
		}
	})
	t.Run("bench-monitor-usage", func(t *testing.T) {
		// tbtso-bench runs no monitored machine, so a monitor request is
		// a usage error rather than a silent "0 violations".
		out, code := runExit(t, "./cmd/tbtso-bench", "-obs.monitor", "residency")
		if code != 2 || !strings.Contains(out, "-obs.monitor") {
			t.Fatalf("tbtso-bench -obs.monitor exited %d, want 2:\n%s", code, out)
		}
	})
}
