package fuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tbtso/internal/mc"
	"tbtso/internal/obs/coverage"
	"tbtso/internal/tso"
)

func ckptProg() mc.Program {
	return mc.Program{
		Threads: [][]mc.Op{
			{mc.St(0, 1), mc.Ld(1, 0)},
			{mc.St(1, 1), mc.Ld(0, 0)},
		},
		Vars: 2, Regs: 1,
	}
}

// TestRunContextPrefixResume pins the resume property RunContext's doc
// comment promises: interrupt a campaign anywhere, rerun the remaining
// seeds, fold the two reports — the result equals the uninterrupted
// campaign exactly.
func TestRunContextPrefixResume(t *testing.T) {
	cfg := Config{
		Deltas:           []int{0, 1},
		MachSeeds:        1,
		MaxStates:        40_000,
		CrossCheckStates: -1,
	}
	const n = 60
	const startSeed = int64(7)
	baseline := Run(cfg, n, startSeed)

	for _, workers := range []int{1, 4} {
		wcfg := cfg
		wcfg.Workers = workers

		// Pre-cancelled context: nothing runs, everything resumes.
		gone, cancel := context.WithCancel(context.Background())
		cancel()
		rep, done, err := RunContext(gone, wcfg, n, startSeed)
		if err == nil {
			t.Fatalf("workers=%d: pre-cancelled RunContext returned nil error", workers)
		}
		if done != 0 || rep.Coverage.Programs != 0 {
			t.Fatalf("workers=%d: pre-cancelled RunContext did work: done=%d programs=%d", workers, done, rep.Coverage.Programs)
		}

		// Mid-flight cancellations at assorted points: whatever prefix
		// completed, prefix + resumed remainder must equal the baseline.
		for trial := 0; trial < 4; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			go func(d time.Duration) {
				time.Sleep(d)
				cancel()
			}(time.Duration(trial*3) * time.Millisecond)
			part, done, _ := RunContext(ctx, wcfg, n, startSeed)
			cancel()
			if done < 0 || done > n {
				t.Fatalf("workers=%d trial=%d: done=%d out of range", workers, trial, done)
			}
			if part.Coverage.Programs != uint64(done) {
				t.Fatalf("workers=%d trial=%d: partial report has %d programs, done=%d",
					workers, trial, part.Coverage.Programs, done)
			}
			rest, rdone, rerr := RunContext(nil, wcfg, n-done, startSeed+int64(done))
			if rerr != nil || rdone != n-done {
				t.Fatalf("workers=%d trial=%d: resume incomplete: done=%d err=%v", workers, trial, rdone, rerr)
			}
			part.Add(rest)
			if !reflect.DeepEqual(part, baseline) {
				t.Errorf("workers=%d trial=%d (interrupted at %d): interrupted+resumed report differs from uninterrupted baseline",
					workers, trial, done)
			}
		}
	}

	// Cancelled while the two cells of one program sit on two workers:
	// both are cut short, so done stops before that program, and the
	// resumed report is byte-identical to the baseline.
	const held = 5 // the program index held at the gate
	g := &gate{seed: startSeed + held, arrived: make(chan struct{}, 2), release: make(chan struct{})}
	withSampler(t, func() sampler { return gateSampler{NewSampler(), g} })
	wcfg := cfg
	wcfg.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		rep  Report
		done int
		err  error
	}
	out := make(chan result, 1)
	go func() {
		rep, done, err := RunContext(ctx, wcfg, n, startSeed)
		out <- result{rep, done, err}
	}()
	<-g.arrived
	<-g.arrived
	cancel()
	close(g.release)
	cut := <-out
	if cut.err == nil || cut.done != held || cut.rep.Coverage.Programs != held {
		t.Fatalf("cut mid-program: done=%d programs=%d err=%v, want %d folded and the context's error",
			cut.done, cut.rep.Coverage.Programs, cut.err, held)
	}
	rest, rdone, rerr := RunContext(nil, wcfg, n-held, startSeed+held)
	if rerr != nil || rdone != n-held {
		t.Fatalf("resume after the held program incomplete: done=%d err=%v", rdone, rerr)
	}
	cut.rep.Add(rest)
	got, err := json.Marshal(cut.rep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !reflect.DeepEqual(cut.rep, baseline) {
		t.Errorf("report cut mid-program and resumed differs from the uninterrupted baseline")
	}
}

// TestRunContextComplete: with a live context the context-aware entry
// point matches plain Run exactly and reports a full prefix.
func TestRunContextComplete(t *testing.T) {
	cfg := Config{Deltas: []int{0, 1}, MachSeeds: 1, CrossCheckStates: -1, Workers: 4}
	baseline := Run(cfg, 30, 3)
	rep, done, err := RunContext(context.Background(), cfg, 30, 3)
	if err != nil || done != 30 {
		t.Fatalf("complete run: done=%d err=%v", done, err)
	}
	if !reflect.DeepEqual(rep, baseline) {
		t.Error("RunContext with live context differs from Run")
	}
}

func sampleMismatches() []Mismatch {
	return []Mismatch{
		{
			Kind: KindSampledOutcome, Seed: 42, Delta: 1, Cover: 9,
			Schedule: &Schedule{Policy: tso.DrainAdversarial, MachSeed: 3},
			Outcome:  "r0=1 r1=0", Detail: "outcome outside exhaustive set",
			Program: ckptProg(),
		},
		{
			Kind: KindEngineDivergence, Seed: 43, Delta: 0,
			Detail:  "parallel/sequential outcome sets differ",
			Program: ckptProg(),
		},
		{
			Kind: KindMachineError, Seed: 44, Delta: 3, Cover: 15,
			Schedule: &Schedule{Policy: tso.DrainEager, MachSeed: 1},
			Detail:   "machine fault: deadlock",
			Program:  ckptProg(),
		},
	}
}

// TestMismatchWireRoundTrip: a mismatch is its own wire form. The
// schedule's keys appear exactly when the record names a machine run.
func TestMismatchWireRoundTrip(t *testing.T) {
	for _, m := range sampleMismatches() {
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("encode %s: %v", m.Kind, err)
		}
		hasSchedule := m.Kind != KindEngineDivergence
		if got := bytes.Contains(blob, []byte(`"policy":`)); got != hasSchedule {
			t.Errorf("%s: policy key present=%v, want %v: %s", m.Kind, got, hasSchedule, blob)
		}
		var back Mismatch
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("decode %s: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("%s: wire round trip mutated the mismatch:\n got %+v\nwant %+v", m.Kind, back, m)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Deltas: []int{0, 1}, MachSeeds: 1}
	hash := cfg.CampaignHash(500, 7, 400)
	ck := &Checkpoint{
		Kind: CheckpointKind, ConfigHash: hash,
		N: 500, FirstSeed: 7, NextSeed: 131,
		Totals: Totals{
			Programs: 124, Runs: 744, Truncated: 2, Mismatches: 3, ShrinkSteps: 11,
			Artifacts: []string{"fuzz-000.json"},
		},
	}
	ck.Pending = sampleMismatches()

	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	nbytes, err := WriteCheckpoint(path, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nbytes <= 0 {
		t.Fatalf("WriteCheckpoint reported %d bytes", nbytes)
	}
	back, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ck) {
		t.Errorf("checkpoint round trip mutated the document:\n got %+v\nwant %+v", back, ck)
	}
	if err := back.Validate(hash); err != nil {
		t.Errorf("Validate on a faithful checkpoint: %v", err)
	}
	if !reflect.DeepEqual(back.Pending, sampleMismatches()) {
		t.Error("pending shrink queue did not survive the round trip")
	}
	if back.Done() {
		t.Error("mid-campaign checkpoint reports Done")
	}
	fin := *back
	fin.NextSeed = fin.FirstSeed + int64(fin.N)
	fin.Pending = nil
	if !fin.Done() {
		t.Error("finished checkpoint does not report Done")
	}
}

func TestCheckpointValidateRejects(t *testing.T) {
	cfg := Config{Deltas: []int{0, 1}, MachSeeds: 1}
	hash := cfg.CampaignHash(100, 0, 400)
	good := Checkpoint{
		Kind: CheckpointKind, ConfigHash: hash, N: 100, FirstSeed: 0, NextSeed: 50,
		Totals: Totals{Programs: 50}, Coverage: &coverage.Snapshot{Programs: 50},
	}
	if err := good.Validate(hash); err != nil {
		t.Fatalf("Validate rejected a consistent checkpoint: %v", err)
	}

	wrongHash := good
	other := Config{Deltas: []int{0, 5}, MachSeeds: 1}
	if err := wrongHash.Validate(other.CampaignHash(100, 0, 400)); err == nil {
		t.Error("Validate accepted a checkpoint from a different configuration")
	} else if !strings.Contains(err.Error(), "different campaign configuration") {
		t.Errorf("hash-mismatch error lacks the explanation: %v", err)
	}

	wrongKind := good
	wrongKind.Kind = "flight-dump"
	if err := wrongKind.Validate(hash); err == nil {
		t.Error("Validate accepted a wrong-kind document")
	}

	badCursor := good
	badCursor.NextSeed = 101
	if err := badCursor.Validate(hash); err == nil {
		t.Error("Validate accepted an out-of-range cursor")
	}

	// Every fold advances the cursor by one program, so the totals and
	// the coverage must count exactly the folded seeds.
	badTotals := good
	badTotals.Programs = 49
	badCoverage := good
	badCoverage.Coverage = &coverage.Snapshot{Programs: 51}
	for name, c := range map[string]struct {
		ck   Checkpoint
		nums []string
	}{
		"totals":   {badTotals, []string{"49", "50"}},
		"coverage": {badCoverage, []string{"51", "50"}},
	} {
		err := c.ck.Validate(hash)
		if err == nil {
			t.Errorf("Validate accepted a checkpoint whose %s program count disagrees", name)
			continue
		}
		for _, n := range c.nums {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("%s: error does not name %s: %v", name, n, err)
			}
		}
	}
	noCoverage := good
	noCoverage.Coverage = nil
	if err := noCoverage.Validate(hash); err != nil {
		t.Errorf("Validate rejected a checkpoint without coverage: %v", err)
	}
}

// TestCampaignHashSensitivity: the hash moves with every
// report-affecting parameter and ignores the report-invariant ones.
func TestCampaignHashSensitivity(t *testing.T) {
	base := Config{Deltas: []int{0, 1}, MachSeeds: 2, MaxStates: 50_000, CrossCheckStates: -1}
	h := base.CampaignHash(100, 1, 400)
	if h != base.CampaignHash(100, 1, 400) {
		t.Fatal("CampaignHash is not deterministic")
	}

	// Workers is report-invariant — resuming with different parallelism
	// is explicitly supported.
	par := base
	par.Workers = 16
	if par.CampaignHash(100, 1, 400) != h {
		t.Error("Workers changed the campaign hash; resume across worker counts would be refused")
	}

	// Zero-valued fields hash like their defaults, so "flag omitted" and
	// "flag set to the default" resume interchangeably.
	expl := base
	expl.Policies = []tso.DrainPolicy{tso.DrainEager, tso.DrainRandom, tso.DrainAdversarial}
	if expl.CampaignHash(100, 1, 400) != h {
		t.Error("explicit default policies hash differently from the implied defaults")
	}

	mut := func(name string, c Config, n int, s int64, shrink int) {
		if c.CampaignHash(n, s, shrink) == h {
			t.Errorf("%s did not change the campaign hash", name)
		}
	}
	d := base
	d.Deltas = []int{0, 2}
	mut("Deltas", d, 100, 1, 400)
	ms := base
	ms.MachSeeds = 3
	mut("MachSeeds", ms, 100, 1, 400)
	st := base
	st.MaxStates = 60_000
	mut("MaxStates", st, 100, 1, 400)
	cc := base
	cc.CrossCheckStates = 1000
	mut("CrossCheckStates", cc, 100, 1, 400)
	g := base
	g.Gen.MaxThreads = 2
	mut("Gen", g, 100, 1, 400)
	pol := base
	pol.Policies = []tso.DrainPolicy{tso.DrainEager}
	mut("Policies", pol, 100, 1, 400)
	mut("N", base, 101, 1, 400)
	mut("FirstSeed", base, 100, 2, 400)
	mut("ShrinkMax", base, 100, 1, 500)
}

// TestCheckpointFoldReadsCoverage: folding a stream of reports leaves
// the checkpoint's totals equal to its coverage's counts and its cursor
// one seed past each folded program, so it validates.
func TestCheckpointFoldReadsCoverage(t *testing.T) {
	cfg := obsTestConfig(2)
	const n, first = 20, int64(5)
	hash := cfg.CampaignHash(n, first, 400)
	ck := Checkpoint{Kind: CheckpointKind, ConfigHash: hash, N: n, FirstSeed: first, NextSeed: first}
	var all Report
	if done, err := Stream(nil, cfg, n, first, func(r Report) bool {
		ck.Fold(r)
		all.Add(r)
		return true
	}); err != nil || done != n {
		t.Fatalf("done=%d err=%v", done, err)
	}
	want := Totals{
		Programs: n, Runs: int(all.Coverage.Runs),
		Truncated: int(all.Coverage.MC.Truncated), Mismatches: len(all.Mismatches),
	}
	if !reflect.DeepEqual(ck.Totals, want) || !reflect.DeepEqual(ck.Pending, all.Mismatches) {
		t.Errorf("folded totals %+v, %d pending; want %+v, %d", ck.Totals, len(ck.Pending), want, len(all.Mismatches))
	}
	if !reflect.DeepEqual(ck.Coverage, &all.Coverage) {
		t.Error("folded coverage differs from the merged report's")
	}
	if err := ck.Validate(hash); err != nil || !ck.Done() {
		t.Errorf("folded checkpoint: Validate %v, Done %v", err, ck.Done())
	}
}
