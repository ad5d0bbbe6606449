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
	for _, m := range sampleMismatches() {
		ck.Pending = append(ck.Pending, EncodeMismatch(m))
	}
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
