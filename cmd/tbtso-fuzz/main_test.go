package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"tbtso/internal/fuzz"
	"tbtso/internal/mc"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
)

// binPath is the tbtso-fuzz binary under test, built once in TestMain —
// signal delivery and exit codes need a real process, not run().
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tbtso-fuzz-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "tbtso-fuzz")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building tbtso-fuzz: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// campaignFlags is the shared shape of every run in the test: small but
// long enough that the interrupted run is reliably still going when the
// first periodic checkpoint appears.
func campaignFlags(extra ...string) []string {
	return append([]string{
		"-n", "2000", "-seed", "11", "-deltas", "0,1", "-machseeds", "2",
		"-maxstates", "30000", "-crosscheck", "-1", "-shrink", "2000", "-json",
	}, extra...)
}

// runFuzz runs the binary to completion and returns (stdout, stderr,
// exit code).
func runFuzz(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(stdout), stderr.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return string(stdout), stderr.String(), 0
}

// metricValues reads the integer lines ("name value") of a -metrics
// dump.
func metricValues(stderr string) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(stderr, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// TestCountersMatchSummaryWhenCut: a campaign cut short by its time
// budget publishes fuzz.* counters for exactly the programs its summary
// reports — checks the workers ran past the last fold count nowhere.
func TestCountersMatchSummaryWhenCut(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess campaign test")
	}
	stdout, stderr, code := runFuzz(t, campaignFlags("-n", "100000", "-time", "300ms", "-workers", "4", "-metrics")...)
	if code != 130 && code != 0 {
		t.Fatalf("budgeted campaign exited %d\n%s", code, stderr)
	}
	var sum summary
	if err := json.Unmarshal([]byte(stdout), &sum); err != nil {
		t.Fatalf("summary: %v\n%s", err, stdout)
	}
	if !sum.Interrupted || sum.Programs == 0 {
		t.Fatalf("the budget did not cut the campaign after some programs: %+v", sum)
	}
	m := metricValues(stderr)
	for name, want := range map[string]int{
		"fuzz.programs":   sum.Programs,
		"fuzz.runs":       sum.Runs,
		"fuzz.mismatches": sum.Mismatches,
	} {
		if got, ok := m[name]; !ok || got != int64(want) {
			t.Errorf("%s = %d (printed %v), summary says %d", name, got, ok, want)
		}
	}
}

// TestResumeGaugesRateThisProcess: the throughput gauges of a resumed
// campaign rate only the programs and runs this process folded, not the
// totals restored from the checkpoint.
func TestResumeGaugesRateThisProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const done, left = 1_000_000, 5
	flags := []string{"-n", strconv.Itoa(done + left), "-seed", "1", "-deltas", "0", "-machseeds", "1", "-crosscheck", "-1", "-json", "-metrics"}
	cfg := fuzz.Config{Deltas: []int{0}, MachSeeds: 1, CrossCheckStates: -1}
	ck := &fuzz.Checkpoint{
		Kind: fuzz.CheckpointKind, ConfigHash: cfg.CampaignHash(done+left, 1, 4000),
		N: done + left, FirstSeed: 1, NextSeed: 1 + done,
		Totals:   fuzz.Totals{Programs: done, Runs: 3 * done},
		Coverage: &coverage.Snapshot{Programs: done, Runs: 3 * done},
	}
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := fuzz.WriteCheckpoint(path, ck, nil); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runFuzz(t, append(flags, "-resume", path)...)
	if code != 0 {
		t.Fatalf("resumed campaign exited %d\n%s", code, stderr)
	}
	var sum summary
	if err := json.Unmarshal([]byte(stdout), &sum); err != nil {
		t.Fatalf("summary: %v\n%s", err, stdout)
	}
	if sum.Programs != done+left {
		t.Fatalf("summary counts %d programs, want %d", sum.Programs, done+left)
	}
	// The gauges are set before the summary's clock stops, so rating the
	// restored totals would give at least restored/elapsed.
	sec := float64(sum.ElapsedMS+1) / 1e3
	m := metricValues(stderr)
	for name, restored := range map[string]int{
		"fuzz.campaign.programs_per_sec": ck.Programs,
		"fuzz.campaign.runs_per_sec":     ck.Runs,
	} {
		got, ok := m[name]
		if limit := float64(restored) / sec; !ok || float64(got) >= limit {
			t.Errorf("%s = %d (printed %v), want the rate of the %d programs this process folded, below %.0f", name, got, ok, left, limit)
		}
	}
}

// TestSigintCheckpointResume interrupts a live parallel campaign with
// SIGINT mid-flight and asserts the whole graceful-drain contract:
// exit 130, a valid resumable checkpoint, the unconditional interrupt
// flight-recorder artifact, and a resumed run (at a different worker
// count) whose summary is byte-identical to an uninterrupted campaign's
// once elapsed_ms is zeroed.
func TestSigintCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess campaign test")
	}
	tmp := t.TempDir()
	ckpt := filepath.Join(tmp, "campaign.ckpt")

	// Baseline: the same campaign, uninterrupted.
	baseOut, baseErr, code := runFuzz(t, campaignFlags()...)
	if code != 0 {
		t.Fatalf("baseline campaign exited %d\nstderr:\n%s", code, baseErr)
	}
	var baseline summary
	if err := json.Unmarshal([]byte(baseOut), &baseline); err != nil {
		t.Fatalf("baseline summary: %v\n%s", err, baseOut)
	}
	if baseline.Interrupted || baseline.Checkpoint != "" {
		t.Fatalf("uninterrupted summary carries interruption fields: %+v", baseline)
	}

	// Interrupted: 4 workers, periodic checkpoints, the monitor on so the
	// interrupt flight dump is written.
	cmd := exec.Command(binPath, campaignFlags(
		"-workers", "4", "-ckpt", ckpt, "-ckpt.every", "50",
		"-obs.monitor", "residency", "-obs.flightdir", tmp,
	)...)
	outF, err := os.Create(filepath.Join(tmp, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(filepath.Join(tmp, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	cmd.Stdout, cmd.Stderr = outF, errF
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for the first periodic checkpoint (atomic rename: existing
	// means complete), then SIGINT. The campaign still has most of its
	// 2000 programs left at that point.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := fuzz.ReadCheckpoint(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no checkpoint appeared within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted campaign: err=%v, want exit code 130", err)
	}
	stderrB, _ := os.ReadFile(filepath.Join(tmp, "stderr"))
	if want := "resume with -resume"; !strings.Contains(string(stderrB), want) {
		t.Errorf("interrupted stderr lacks %q:\n%s", want, stderrB)
	}

	// The summary admits the interruption and points at the checkpoint.
	stdoutB, _ := os.ReadFile(filepath.Join(tmp, "stdout"))
	var cut summary
	if err := json.Unmarshal(stdoutB, &cut); err != nil {
		t.Fatalf("interrupted summary: %v\n%s", err, stdoutB)
	}
	if !cut.Interrupted || cut.Checkpoint != ckpt {
		t.Errorf("interrupted summary: Interrupted=%v Checkpoint=%q, want true, %q", cut.Interrupted, cut.Checkpoint, ckpt)
	}
	if cut.Programs >= 2000 {
		t.Errorf("campaign finished (%d programs) before the signal — nothing was interrupted", cut.Programs)
	}

	// The checkpoint on disk is valid for this campaign's configuration
	// and resumes from a mid-campaign cursor.
	ck, err := fuzz.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fuzz.Config{Deltas: []int{0, 1}, MachSeeds: 2, MaxStates: 30000, CrossCheckStates: -1}
	if err := ck.Validate(cfg.CampaignHash(2000, 11, 2000)); err != nil {
		t.Fatalf("checkpoint does not validate against the campaign flags: %v", err)
	}
	if ck.Done() {
		t.Error("interrupted checkpoint claims the campaign is done")
	}

	// The interrupt flight artifact was dumped unconditionally, from the
	// campaign's own recorder: it covers exactly the folded prefix the
	// final checkpoint resumes after.
	ff, err := os.Open(filepath.Join(tmp, "tbtso-fuzz.interrupt.flight.json"))
	if err != nil {
		t.Fatalf("interrupt flight artifact: %v", err)
	}
	defer ff.Close()
	dump, err := monitor.ReadCampaignFlightDump(ff)
	if err != nil {
		t.Fatalf("interrupt flight artifact does not parse: %v", err)
	}
	if dump.NextSeed <= dump.FirstSeed || dump.NextSeed != ck.NextSeed {
		t.Errorf("interrupt flight covers seeds [%d, %d), want [%d, %d) with the prefix non-empty",
			dump.FirstSeed, dump.NextSeed, ck.FirstSeed, ck.NextSeed)
	}

	// Resume at a different worker count: the report is worker-count
	// independent and the summary must match the uninterrupted baseline
	// byte-for-byte once wall-clock is zeroed.
	resOut, resErr, code := runFuzz(t, campaignFlags("-workers", "2", "-resume", ckpt)...)
	if code != 0 {
		t.Fatalf("resumed campaign exited %d\nstderr:\n%s", code, resErr)
	}
	var resumed summary
	if err := json.Unmarshal([]byte(resOut), &resumed); err != nil {
		t.Fatalf("resumed summary: %v\n%s", err, resOut)
	}
	baseline.ElapsedMS, resumed.ElapsedMS = 0, 0
	if !reflect.DeepEqual(baseline, resumed) {
		t.Errorf("resumed summary differs from uninterrupted baseline:\n got %+v\nwant %+v", resumed, baseline)
	}

	// A checkpoint from a finished campaign resumes as a no-op.
	againOut, _, code := runFuzz(t, campaignFlags("-resume", ckpt)...)
	if code != 0 {
		t.Fatalf("re-resume of a completed campaign exited %d", code)
	}
	var again summary
	if err := json.Unmarshal([]byte(againOut), &again); err != nil {
		t.Fatal(err)
	}
	again.ElapsedMS = 0
	if !reflect.DeepEqual(baseline, again) {
		t.Errorf("no-op re-resume diverged from the baseline:\n got %+v\nwant %+v", again, baseline)
	}
}

// TestResumeRejectsForeignConfig pins the guard: a checkpoint must not
// resume a campaign with different report-affecting flags.
func TestResumeRejectsForeignConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	tmp := t.TempDir()
	ckpt := filepath.Join(tmp, "c.ckpt")
	_, stderr, code := runFuzz(t, "-n", "8", "-seed", "3", "-deltas", "0,1", "-machseeds", "1",
		"-maxstates", "20000", "-crosscheck", "-1", "-ckpt", ckpt)
	if code != 0 {
		t.Fatalf("seed campaign exited %d\n%s", code, stderr)
	}
	_, stderr, code = runFuzz(t, "-n", "8", "-seed", "3", "-deltas", "0,1,3", "-machseeds", "1",
		"-maxstates", "20000", "-crosscheck", "-1", "-resume", ckpt)
	if code != 2 {
		t.Fatalf("resume with different -deltas exited %d, want 2\n%s", code, stderr)
	}
	if want := "different campaign configuration"; !strings.Contains(stderr, want) {
		t.Errorf("rejection stderr lacks %q:\n%s", want, stderr)
	}
}

// TestUnknownPolicyExits2: -replay of an artifact and -resume of a
// checkpoint that name an unknown drain policy are load errors: exit 2,
// with the name on stderr.
func TestUnknownPolicyExits2(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const prog = `{"vars":1,"regs":1,"threads":[[{"kind":"st","val":1}]]}`
	const record = `"seed":1,"delta":1,"policy":"no-such-policy","program":` + prog
	tmp := t.TempDir()
	artifact := filepath.Join(tmp, "a.json")
	if err := os.WriteFile(artifact, []byte(`{"kind":"sampled-outcome",`+record+`,"original":`+prog+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The resume hash must match, so the checkpoint is written by a real
	// campaign and its shrink queue is then edited in.
	flags := []string{"-n", "2", "-deltas", "0", "-machseeds", "1", "-crosscheck", "-1"}
	ckpt := filepath.Join(tmp, "c.ckpt")
	if _, stderr, code := runFuzz(t, append(flags, "-ckpt", ckpt)...); code != 0 {
		t.Fatalf("seed campaign exited %d\n%s", code, stderr)
	}
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	blob = []byte(strings.Replace(string(blob), `"kind": "fuzz-checkpoint",`,
		`"kind": "fuzz-checkpoint", "pending": [{"kind":"machine-error",`+record+`}],`, 1))
	if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-replay", artifact}, append(flags, "-resume", ckpt)} {
		_, stderr, code := runFuzz(t, args...)
		if code != 2 || !strings.Contains(stderr, `"no-such-policy"`) {
			t.Errorf("%v: exit %d, want 2 naming the policy\n%s", args, code, stderr)
		}
	}
}

// TestBadObsFlagExits2: an -obs.* flag the session cannot start from is
// a usage error (2), not "mismatches found" (1).
func TestBadObsFlagExits2(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	if _, stderr, code := runFuzz(t, "-n", "1", "-obs.monitor", "bogus"); code != 2 || !strings.Contains(stderr, "bogus") {
		t.Errorf("exit %d, want 2 naming the monitor\n%s", code, stderr)
	}
}

// TestEngineDivergenceArtifactHasNoTrace: an engine divergence names no
// machine run, so its artifact carries no policy and gets no trace.
func TestEngineDivergenceArtifactHasNoTrace(t *testing.T) {
	m := fuzz.Mismatch{
		Kind: fuzz.KindEngineDivergence, Seed: 43,
		Program: mc.Program{Threads: [][]mc.Op{{mc.St(0, 1)}}, Vars: 1, Regs: 1},
	}
	a := fuzz.NewArtifact(m, fuzz.Candidate{Program: m.Program}, fuzz.ShrinkResult{})
	dir := t.TempDir()
	path, err := writeArtifact(dir, "div", a)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), `"policy"`) {
		t.Errorf("engine-divergence artifact names a policy:\n%s", blob)
	}
	if _, err := os.Stat(filepath.Join(dir, "div.trace.json")); !os.IsNotExist(err) {
		t.Errorf("engine-divergence artifact got a machine trace (stat error %v)", err)
	}
}
