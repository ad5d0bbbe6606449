package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSummaryWireGolden pins the -json summary's bytes: the field names
// and order are what scripts and the benchmark harness parse, so the
// golden is edited by hand, never regenerated.
func TestSummaryWireGolden(t *testing.T) {
	var s summary
	s.Programs, s.Runs, s.Truncated = 300, 1800, 4
	s.Mismatches, s.ShrinkSteps = 2, 57
	s.Artifacts = []string{"out/mismatch-seed9-d1-sampled-outcome.json"}
	s.FirstSeed, s.LastSeed, s.ElapsedMS = 5, 304, 1234
	s.Interrupted, s.Checkpoint = true, "c.json"
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const golden = "testdata/summary.golden.json"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("summary wire form drifted from %s:\n got %s\nwant %s", golden, got, want)
	}
}
