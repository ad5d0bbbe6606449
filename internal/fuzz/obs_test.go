package fuzz

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"tbtso/internal/obs"
	"tbtso/internal/obs/monitor"
)

// TestWriteCheckpointMetered pins the write-amplification
// instrumentation: every metered write populates the byte counter AND
// the latency histogram, so the ROADMAP question "is checkpoint
// encoding worth compacting?" has its data.
func TestWriteCheckpointMetered(t *testing.T) {
	cfg := Config{Deltas: []int{0, 1}, MachSeeds: 1}
	ck := &Checkpoint{
		Kind: CheckpointKind, ConfigHash: cfg.CampaignHash(100, 0, 400),
		N: 100, FirstSeed: 0, NextSeed: 40,
		Programs: 40, Runs: 240,
	}
	path := filepath.Join(t.TempDir(), "c.ckpt")
	reg := obs.NewRegistry()
	const writes = 3
	for i := 0; i < writes; i++ {
		nb, err := WriteCheckpointMetered(path, ck, reg)
		if err != nil || nb <= 0 {
			t.Fatalf("write %d: nb=%d err=%v", i, nb, err)
		}
	}
	c, ok := reg.LookupCounter("fuzz.campaign.checkpoints_written")
	if !ok || c.Load() != writes {
		t.Errorf("checkpoints_written = %v, want %d", c, writes)
	}
	b, ok := reg.LookupCounter("fuzz.campaign.checkpoint_bytes")
	if !ok || b.Load() == 0 {
		t.Error("checkpoint_bytes not populated")
	}
	h, ok := reg.LookupHistogram("fuzz.campaign.checkpoint_write_ns")
	if !ok {
		t.Fatal("checkpoint_write_ns histogram missing")
	}
	if h.Count() != writes || h.Sum() <= 0 {
		t.Errorf("checkpoint_write_ns: count=%d sum=%d, want %d observations", h.Count(), h.Sum(), writes)
	}
	// nil registry skips metering but still writes.
	if _, err := WriteCheckpointMetered(path, ck, nil); err != nil {
		t.Fatalf("nil-registry write: %v", err)
	}
}

func obsTestConfig(workers int) Config {
	return Config{
		Deltas:           []int{0, 1},
		MachSeeds:        1,
		MaxStates:        40_000,
		CrossCheckStates: -1,
		Workers:          workers,
	}
}

// TestCoverageWorkerCountInvariant: the campaign coverage snapshot —
// down to its JSON bytes — must not depend on how the seed space was
// sharded, and an interrupted+resumed pair must merge to the same
// bytes. (TestRunContextPrefixResume covers the struct equality as part
// of the whole report; this pins the marshaled form the checkpoint and
// /coverage serve.)
func TestCoverageWorkerCountInvariant(t *testing.T) {
	const n = 40
	const start = int64(5)
	marshal := func(rep Report) []byte {
		blob, err := json.Marshal(&rep.Coverage)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	base := Run(obsTestConfig(1), n, start)
	baseJSON := marshal(base)
	if base.Coverage.Programs != n || base.Coverage.Runs == 0 {
		t.Fatalf("coverage not populated: %+v", base.Coverage)
	}
	if len(base.Coverage.Cells) == 0 || len(base.Coverage.OpMix) == 0 || len(base.Coverage.Shapes) == 0 {
		t.Fatalf("coverage dimensions empty: %s", baseJSON)
	}

	for _, workers := range []int{2, 4} {
		rep := Run(obsTestConfig(workers), n, start)
		if got := marshal(rep); !bytes.Equal(got, baseJSON) {
			t.Errorf("workers=%d coverage differs:\n got %s\nwant %s", workers, got, baseJSON)
		}
	}

	// Split at an arbitrary boundary and merge: identical bytes again.
	for _, split := range []int{1, 17, n - 1} {
		part := Run(obsTestConfig(3), split, start)
		rest := Run(obsTestConfig(2), n-split, start+int64(split))
		part.Add(rest)
		if got := marshal(part); !bytes.Equal(got, baseJSON) {
			t.Errorf("split=%d merged coverage differs from uninterrupted run", split)
		}
	}
}

// TestFlightDumpWorkerCountInvariant: the merged campaign flight dump
// depends only on which seeds completed — not on worker count, not on
// where a checkpoint/resume split fell (once the resumed segment spans
// the retention window).
func TestFlightDumpWorkerCountInvariant(t *testing.T) {
	const n = 30
	const start = int64(3)
	const retain = 8

	runSegment := func(f *monitor.ShardedFlight, workers, count int, first int64) {
		cfg := obsTestConfig(workers)
		cfg.Flight = f
		rep, done, err := RunContext(nil, cfg, count, first)
		if err != nil || done != count {
			t.Fatalf("segment done=%d err=%v", done, err)
		}
		if rep.Programs != count {
			t.Fatalf("segment programs=%d want %d", rep.Programs, count)
		}
	}
	dump := func(f *monitor.ShardedFlight) string {
		var buf bytes.Buffer
		if err := f.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	flights := map[string]string{}
	for _, workers := range []int{1, 4} {
		f := monitor.NewShardedFlight(nil, retain)
		f.Begin(start)
		runSegment(f, workers, n, start)
		flights[string(rune('0'+workers))] = dump(f)
	}
	if flights["1"] != flights["4"] {
		t.Errorf("flight dump depends on worker count:\n%s\nvs\n%s", flights["1"], flights["4"])
	}

	doc, err := monitor.ReadCampaignFlightDump(bytes.NewBufferString(flights["1"]))
	if err != nil {
		t.Fatal(err)
	}
	if doc.FirstSeed != start || doc.NextSeed != start+n {
		t.Errorf("dump prefix [%d,%d), want [%d,%d)", doc.FirstSeed, doc.NextSeed, start, start+n)
	}
	if doc.RetainedSeeds != retain || doc.DroppedSeeds != n-retain {
		t.Errorf("retention: retained=%d dropped=%d", doc.RetainedSeeds, doc.DroppedSeeds)
	}
	if doc.TotalEvents == 0 {
		t.Error("campaign recorded no events")
	}
	for i, g := range doc.Groups {
		if g.Seed != start+n-int64(retain)+int64(i) {
			t.Fatalf("group %d has seed %d; dump is not the seed-ordered tail", i, g.Seed)
		}
		if len(g.Runs) == 0 || g.Events == 0 {
			t.Errorf("seed %d group is empty", g.Seed)
		}
		for _, r := range g.Runs {
			if r.Tag == "" {
				t.Errorf("seed %d has an untagged run", g.Seed)
			}
		}
	}

	// Checkpoint/resume split: restore totals, rerun the remainder. The
	// resumed segment (n-split >= retain) re-records the whole retained
	// window, so the final dump is byte-identical.
	const split = 12
	f1 := monitor.NewShardedFlight(nil, retain)
	f1.Begin(start)
	runSegment(f1, 2, split, start)
	ev, viol := f1.Totals()

	f2 := monitor.NewShardedFlight(nil, retain)
	f2.Restore(start, start+split, ev, viol, f1.Violating())
	runSegment(f2, 3, n-split, start+split)
	if got := dump(f2); got != flights["1"] {
		t.Errorf("resumed flight dump differs from uninterrupted dump:\n%s\nvs\n%s", got, flights["1"])
	}
}

// TestFlightViolationSurvivesResume: a group holding a violation is
// exempt from the retention window and travels in the checkpoint, so a
// resumed campaign's dump still carries it, byte-identical to the
// uninterrupted dump.
func TestFlightViolationSurvivesResume(t *testing.T) {
	const n = 30
	const start = int64(3)
	const retain = 8
	const split = 12
	planted := &monitor.SeedGroup{Seed: start, Events: 1, Violations: []monitor.Violation{
		{Monitor: "planted", Thread: -1, Detail: "planted violation"},
	}}
	segment := func(f *monitor.ShardedFlight, workers, count int, first int64) {
		cfg := obsTestConfig(workers)
		cfg.Flight = f
		if _, done, err := RunContext(nil, cfg, count, first); err != nil || done != count {
			t.Fatalf("segment done=%d err=%v", done, err)
		}
	}
	dump := func(f *monitor.ShardedFlight) string {
		var buf bytes.Buffer
		if err := f.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	whole := monitor.NewShardedFlight(nil, retain)
	whole.Begin(start)
	whole.Append(planted)
	segment(whole, 2, n, start+1)
	want := dump(whole)

	cut := monitor.NewShardedFlight(nil, retain)
	cut.Begin(start)
	cut.Append(planted)
	segment(cut, 2, split, start+1)
	ck := &Checkpoint{Kind: CheckpointKind, N: n + 1, FirstSeed: start, NextSeed: start + 1 + split}
	ck.FlightEvents, ck.FlightViolations = cut.Totals()
	ck.FlightViolating = cut.Violating()
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := monitor.NewShardedFlight(nil, retain)
	resumed.Restore(start, back.NextSeed, back.FlightEvents, back.FlightViolations, back.FlightViolating)
	segment(resumed, 3, n-split, back.NextSeed)
	if got := dump(resumed); got != want {
		t.Errorf("resumed flight dump differs from uninterrupted dump:\n%s\nvs\n%s", got, want)
	}

	doc, err := monitor.ReadCampaignFlightDump(bytes.NewBufferString(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Groups) != retain+1 || doc.Groups[0].Seed != start || len(doc.Groups[0].Violations) != 1 {
		t.Errorf("dump lost the planted violating group: %d groups, first seed %d", len(doc.Groups), doc.Groups[0].Seed)
	}
	if doc.TotalViolations != 1 {
		t.Errorf("TotalViolations = %d, want 1", doc.TotalViolations)
	}
}
