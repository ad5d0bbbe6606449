package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
)

// goldenCheckpoint is a checkpoint with every wire field populated: the
// folded totals, the pending shrink queue, coverage and the flight
// fields.
func goldenCheckpoint() *Checkpoint {
	ck := &Checkpoint{
		Kind: CheckpointKind, ConfigHash: "sha256:00ff",
		N: 500, FirstSeed: 7, NextSeed: 131,
		Coverage: &coverage.Snapshot{
			Programs: 124, Runs: 744,
			OpMix:    map[string]uint64{"load": 40, "store": 52},
			Shapes:   map[string]*coverage.ShapeStats{"2x4": {Programs: 124, OutcomeSets: 248, CardSum: 700}},
			Cells:    map[string]uint64{coverage.CellKey(0, "eager", 0): 372, coverage.CellKey(1, "random", 1): 372},
			DrainMix: map[string]uint64{"commit": 9},
			MC:       coverage.MCStats{Explorations: 248, States: 5000, Transitions: 9000},
		},
		FlightEvents:     689,
		FlightViolations: 1,
		FlightViolating: []monitor.SeedGroup{{
			Seed: 42, Events: 3,
			Runs:       []monitor.RunRecord{{Threads: []string{"T0", "T1"}, Delta: 1, Tag: "delta=1 policy=random seed=0", Events: []string{"e1", "e2", "e3"}}},
			Violations: []monitor.Violation{{Monitor: "residency", Thread: 1, Enq: 2, Tick: 9, Detail: "store resident 7 > Δ=1", Event: "e3"}},
		}},
	}
	ck.Programs, ck.Runs, ck.Truncated = 124, 744, 2
	ck.Mismatches, ck.ShrinkSteps = 3, 11
	ck.Artifacts = []string{"out/a.json", "out/b.json"}
	ck.Pending = sampleMismatches()
	return ck
}

// TestCheckpointWireGolden pins the checkpoint's bytes: a field that
// moves, renames or changes its omitempty behaviour strands every
// checkpoint already on disk, so the golden is edited by hand, never
// regenerated.
func TestCheckpointWireGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if _, err := WriteCheckpoint(path, goldenCheckpoint(), nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/checkpoint.golden.json"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("checkpoint wire form drifted from %s:\n got %s\nwant %s", golden, got, want)
	}
	back, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Done() {
		t.Error("golden checkpoint is mid-campaign but reports Done")
	}
}

// TestMalformedProgramRejectedOnLoad: an artifact or checkpoint whose
// program addresses a variable it does not declare fails to load, with
// the op named, rather than loading and panicking in the checker when
// it is replayed.
func TestMalformedProgramRejectedOnLoad(t *testing.T) {
	const bad = `{"vars":1,"regs":1,"threads":[[{"kind":"st","addr":5,"val":1}],[{"kind":"ld","reg":0}]]}`
	dir := t.TempDir()
	artifact := filepath.Join(dir, "a.json")
	doc := `{"kind":"sampled-outcome","seed":1,"delta":1,"policy":"random","program":` + bad + `,"original":` + bad + `,"shrink_steps":0,"shrink_attempts":0}`
	if err := os.WriteFile(artifact, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if a, err := ReadArtifact(artifact); err == nil || !strings.Contains(err.Error(), "thread 0 op 0: address 5 outside [0, 1)") {
		t.Fatalf("ReadArtifact on a malformed program: %+v, error %v", a, err)
	}

	ckpt := filepath.Join(dir, "ck.json")
	doc = `{"kind":"fuzz-checkpoint","config_hash":"sha256:00","n":2,"first_seed":1,"next_seed":2,"pending":[{"kind":"sampled-outcome","seed":1,"delta":1,"program":` + bad + `}]}`
	if err := os.WriteFile(ckpt, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(ckpt); err == nil || !strings.Contains(err.Error(), "address 5") {
		t.Fatalf("ReadCheckpoint with a malformed pending program: error %v", err)
	}
}

// TestUnknownPolicyRejectedOnLoad: an artifact or checkpoint naming a
// drain policy the machine does not have fails to load, naming it.
func TestUnknownPolicyRejectedOnLoad(t *testing.T) {
	const prog = `{"vars":1,"regs":1,"threads":[[{"kind":"st","val":1}]]}`
	const schedule = `"policy":"no-such-policy","mach_seed":3`
	dir := t.TempDir()
	artifact := filepath.Join(dir, "a.json")
	doc := `{"kind":"sampled-outcome","seed":1,"delta":1,` + schedule + `,"program":` + prog + `,"original":` + prog + `,"shrink_steps":0,"shrink_attempts":0}`
	if err := os.WriteFile(artifact, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(artifact); err == nil || !strings.Contains(err.Error(), `"no-such-policy"`) {
		t.Errorf("ReadArtifact with an unknown policy: error %v", err)
	}

	ckpt := filepath.Join(dir, "ck.json")
	doc = `{"kind":"fuzz-checkpoint","config_hash":"sha256:00","n":2,"first_seed":1,"next_seed":2,"pending":[{"kind":"machine-error","seed":1,"delta":1,` + schedule + `,"program":` + prog + `}]}`
	if err := os.WriteFile(ckpt, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(ckpt); err == nil || !strings.Contains(err.Error(), `"no-such-policy"`) {
		t.Errorf("ReadCheckpoint with an unknown pending policy: error %v", err)
	}
}

// TestScheduleOnlyWhereARunIsNamed: an engine-divergence record names
// no machine run, so it prints none and has no trace; a sampled-outcome
// or machine-error record loaded without a schedule cannot be replayed
// or traced.
func TestScheduleOnlyWhereARunIsNamed(t *testing.T) {
	ms := sampleMismatches()
	if s := ms[1].String(); strings.Contains(s, "policy=") {
		t.Errorf("engine-divergence record prints a machine run: %s", s)
	}
	var trace bytes.Buffer
	if err := (Artifact{Mismatch: ms[1]}).PerfettoTrace(&trace); err == nil {
		t.Error("engine-divergence artifact produced a machine trace")
	}
	for _, m := range []Mismatch{ms[0], ms[2]} {
		m.Schedule = nil
		a := Artifact{Mismatch: m}
		if _, err := a.Replay(); err == nil {
			t.Errorf("%s artifact without a schedule replayed", m.Kind)
		}
		if err := a.PerfettoTrace(&trace); err == nil {
			t.Errorf("%s artifact without a schedule produced a trace", m.Kind)
		}
	}
}
