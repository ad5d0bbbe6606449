package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tbtso/internal/fuzz"
	"tbtso/internal/obs"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/obs/monitor"
	"tbtso/internal/report"
	"tbtso/internal/tso"
)

// sampleSnapshot builds a coverage snapshot with offset-varied counts
// so merges are distinguishable from double-counts.
func sampleSnapshot(off uint64) *coverage.Snapshot {
	var s coverage.Snapshot
	s.Programs = 2 + off
	s.Runs = 10 + off
	s.OpMix = map[string]uint64{"store": 5 + off, "load": 3}
	s.Cells = map[string]uint64{coverage.CellKey(1, "eager", 0): 4 + off}
	s.DrainMix = map[string]uint64{"fence": 1 + off}
	s.ObserveOutcomeSet(2, 4, 3)
	s.MC.Explorations = 2
	s.MC.States = 100 + off
	return &s
}

// writeDoc writes v to dir/name (obs.WriteDoc) and returns the path.
func writeDoc(t *testing.T, dir, name string, v any) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if _, err := obs.WriteDoc(path, v); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAggregateMixedArtifacts(t *testing.T) {
	dir := t.TempDir()

	// Two campaign checkpoints (two runs), each carrying coverage.
	ck1 := &fuzz.Checkpoint{
		Kind: fuzz.CheckpointKind, ConfigHash: "sha256:aa", N: 10, FirstSeed: 0, NextSeed: 10,
		Totals:   fuzz.Totals{Programs: 10, Runs: 60, Mismatches: 1, ShrinkSteps: 7},
		Coverage: sampleSnapshot(0), FlightEvents: 100, FlightViolations: 0,
	}
	ck2 := &fuzz.Checkpoint{
		Kind: fuzz.CheckpointKind, ConfigHash: "sha256:bb", N: 5, FirstSeed: 50, NextSeed: 52,
		Totals:   fuzz.Totals{Programs: 2, Runs: 12},
		Coverage: sampleSnapshot(3),
	}
	p1 := filepath.Join(dir, "run1.ckpt")
	p2 := filepath.Join(dir, "run2.ckpt")
	if _, err := fuzz.WriteCheckpoint(p1, ck1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fuzz.WriteCheckpoint(p2, ck2, nil); err != nil {
		t.Fatal(err)
	}

	// A campaign flight dump with one violation.
	flight := monitor.NewShardedFlight(nil, 4)
	flight.Begin(0)
	rec := flight.Record(0)
	rec.BeginRun([]string{"T0"}, 1)
	rec.Emit(tso.Event{})
	flight.Append(rec.Finish())
	fp, err := flight.DumpToFile(dir, "campaign")
	if err != nil {
		t.Fatal(err)
	}

	// A metrics snapshot and a figure document (one interrupted).
	reg := obs.NewRegistry()
	reg.Counter("x.total").Add(4)
	var ms []obs.Metric = reg.Snapshot()
	mp := writeDoc(t, dir, "metrics.json", ms)
	tab := report.NewTable("Figure X", "a", "b")
	tab.AddRow("1", "2")
	tab.Interrupted = true
	fig := writeDoc(t, dir, "figures.json", map[string]any{"figures": []*report.Table{tab}})

	rep, err := aggregate([]string{p1, p2, fp, mp, fig})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Campaign == nil || rep.Campaign.Checkpoints != 2 || rep.Campaign.Programs != 12 ||
		rep.Campaign.Runs != 72 || rep.Campaign.Mismatches != 1 || rep.Campaign.Incomplete != 1 {
		t.Errorf("campaign totals: %+v", rep.Campaign)
	}
	want := sampleSnapshot(0)
	want.Merge(sampleSnapshot(3))
	if !reflect.DeepEqual(rep.Coverage, want) {
		t.Errorf("merged coverage:\n got %+v\nwant %+v", rep.Coverage, want)
	}
	// The flight dump wins over the checkpoints' bare totals (no
	// double-counting of the same campaign family's events).
	if rep.Flight == nil || rep.Flight.Dumps != 1 || rep.Flight.Events != 1 {
		t.Errorf("flight totals: %+v", rep.Flight)
	}
	if rep.Figures == nil || rep.Figures.Figures != 1 || len(rep.Figures.Interrupted) != 1 {
		t.Errorf("figure totals: %+v", rep.Figures)
	}
	if len(rep.Metrics) != 1 || rep.Metrics[0].Name != "x.total" || rep.Metrics[0].Value != 4 {
		t.Errorf("metrics: %+v", rep.Metrics)
	}

	// The report is itself an artifact: re-aggregating it reproduces
	// the same coverage and totals.
	rp := writeDoc(t, dir, "report.json", rep)
	again, err := aggregate([]string{rp})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Coverage, rep.Coverage) {
		t.Error("re-aggregated report lost coverage")
	}
	if again.Campaign.Programs != rep.Campaign.Programs || again.Flight.Events != rep.Flight.Events {
		t.Errorf("re-aggregated totals differ: %+v", again)
	}
}

func TestAggregateOrderInvariantCoverage(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", sampleSnapshot(0))
	b := writeDoc(t, dir, "b.json", sampleSnapshot(9))
	ab, err := aggregate([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := aggregate([]string{b, a})
	if err != nil {
		t.Fatal(err)
	}
	abJSON, _ := json.Marshal(ab.Coverage)
	baJSON, _ := json.Marshal(ba.Coverage)
	if string(abJSON) != string(baJSON) {
		t.Fatalf("coverage merge depends on input order:\n%s\n%s", abJSON, baJSON)
	}
}

func TestAggregateRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"kind":"mystery"}`), 0o644)
	if _, err := aggregate([]string{bad}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	notJSON := filepath.Join(dir, "not.json")
	os.WriteFile(notJSON, []byte("hello"), 0o644)
	if _, err := aggregate([]string{notJSON}); err == nil {
		t.Fatal("non-JSON accepted")
	}
}

func TestDrift(t *testing.T) {
	base := &Report{Kind: ReportKind, Coverage: sampleSnapshot(0)}
	base.Coverage.Cells["delta=3 policy=random seed=1"] = 2
	base.Figures = &FigureTotals{Interrupted: []string{"Figure old"}}

	// Candidate covering strictly more, same violations: clean.
	cand := &Report{Kind: ReportKind, Coverage: sampleSnapshot(0)}
	cand.Coverage.Cells["delta=3 policy=random seed=1"] = 9
	cand.Coverage.Cells["delta=0 policy=eager seed=0"] = 1
	if d := Drift(base, cand); len(d) != 0 {
		t.Fatalf("clean candidate flagged: %v", d)
	}

	// Lost cell + lost op kinds + lost shape + violation growth + new
	// interruption.
	worse := &Report{
		Kind:     ReportKind,
		Coverage: &coverage.Snapshot{Cells: map[string]uint64{coverage.CellKey(1, "eager", 0): 1}},
		Flight:   &FlightTotals{Violations: 3},
		Figures:  &FigureTotals{Interrupted: []string{"Figure old", "Figure new"}},
	}
	d := Drift(base, worse)
	if len(d) != 5 {
		t.Fatalf("want 5 drifts, got %d: %v", len(d), d)
	}
	// A figure interrupted in the baseline too is not "newly" interrupted.
	for _, s := range d {
		if s == "figure newly interrupted: Figure old" {
			t.Fatalf("pre-interrupted figure flagged: %v", d)
		}
	}
}
