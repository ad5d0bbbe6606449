package fuzz

import (
	"maps"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

// Seeds of the campaign corpus the fold tests plant on. At seed 310,
// out(1) = out(0) (three outcomes; the engine visits 10, 10 and 13
// states at Δ 0, 1 and 3). Seeds 59 and 94 are sensitive: out(1) ⊊
// out(0).
const (
	seedFlat      = 310
	seedSensitive = 59
	seedSmallSens = 94
)

// withEngine makes every cell's engine exploration at Δ delta return
// plant's rewrite of the real outcome set.
func withEngine(t *testing.T, delta int, plant func(map[string]bool)) {
	old := exploreEngine
	exploreEngine = func(x *mc.Explorer, p mc.Program, d int, opts mc.Options) (mc.Result, error) {
		res, err := old(x, p, d, opts)
		if err == nil && d == delta {
			plant(res.Outcomes)
		}
		return res, err
	}
	t.Cleanup(func() { exploreEngine = old })
}

// withReference makes every reference exploration at Δ delta return
// plant's rewrite of the real outcome set.
func withReference(t *testing.T, delta int, plant func(map[string]bool)) {
	old := exploreReference
	exploreReference = func(r *mc.Reference, p mc.Program, d, maxStates, expect int) (mc.Result, error) {
		res, err := old(r, p, d, maxStates, expect)
		if err == nil && d == delta {
			plant(res.Outcomes)
		}
		return res, err
	}
	t.Cleanup(func() { exploreReference = old })
}

// countReferences counts the reference oracle's explorations from here
// on.
func countReferences(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	old := exploreReference
	exploreReference = func(r *mc.Reference, p mc.Program, delta, maxStates, expect int) (mc.Result, error) {
		n.Add(1)
		return old(r, p, delta, maxStates, expect)
	}
	t.Cleanup(func() { exploreReference = old })
	return &n
}

// dropLeast removes the set's least outcome.
func dropLeast(out map[string]bool) {
	var keys []string
	for o := range out {
		keys = append(keys, o)
	}
	delete(out, slices.Min(keys))
}

// addPlanted adds an outcome no program reaches.
func addPlanted(out map[string]bool) { out["planted"] = true }

// exact is the real engine's outcome set and state count for seed's
// program at Δ delta, bypassing any planted engine.
func exact(t *testing.T, seed int64, delta int) mc.Result {
	t.Helper()
	res, err := mc.ExploreParallel(Gen(GenConfig{}, seed), delta, mc.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// settled checks seed's program with checkProgram, CheckProgram's body
// on the test's sampler, and with Run at 1, 2 and 4 workers, requires
// the same report from each, and returns it.
func settled(t *testing.T, cfg Config, seed int64) Report {
	t.Helper()
	var want Report
	rep, complete := checkProgram(nil, cfg.orDefault(), newSampler(), new(explorers), nil, Gen(GenConfig{}, seed), seed)
	if !complete {
		t.Fatal("check cut short")
	}
	want.Add(rep)
	for _, workers := range []int{1, 2, 4} {
		c := cfg
		c.Workers = workers
		if got := Run(c, 1, seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers=%d: Run's report differs from checkProgram's:\n%v\nvs\n%v", workers, got.Mismatches, want.Mismatches)
		}
	}
	return want
}

// divergences are rep's engine-divergence records.
func divergences(rep Report) []Mismatch {
	var ms []Mismatch
	for _, m := range rep.Mismatches {
		if m.Kind == KindEngineDivergence {
			ms = append(ms, m)
		}
	}
	return ms
}

// oneDivergence requires exactly one engine-divergence record in rep,
// at Δ 3 with the given detail.
func oneDivergence(t *testing.T, rep Report, detail string) {
	t.Helper()
	ms := divergences(rep)
	if len(ms) != 1 || ms[0].Delta != 3 || ms[0].Detail != detail {
		t.Fatalf("engine-divergence records %v, want one at Δ 3 with detail %q", ms, detail)
	}
}

// TestSettleExactCheck: where out(1) = out(0), a Δ 3 engine set that
// drops an outcome is caught by the exact check against out(0), with
// the detail the reference at Δ 3 would have given, as the one record
// of the program — the chain's break at Δ 1 ⊆ Δ 3 is the same fault
// and adds none — and first among its cell's records, before the
// cell's sampled-outcome records.
func TestSettleExactCheck(t *testing.T) {
	withSampler(t, func() sampler { return plantingSampler{NewSampler()} })
	withEngine(t, 3, dropLeast)
	refs := countReferences(t)
	rep := settled(t, Config{}, seedFlat)

	planted := exact(t, seedFlat, 3).Outcomes
	dropLeast(planted)
	seq, err := mc.ExploreSequentialBounded(Gen(GenConfig{}, seedFlat), 3, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	oneDivergence(t, rep, diffOutcomes(planted, seq.Outcomes))
	if n := refs.Load(); n != 4*2 { // Δ 0 and Δ 1 cells of checkProgram and of three Runs
		t.Errorf("%d reference runs, want 8: the fold must not run one", n)
	}

	at := slices.IndexFunc(rep.Mismatches, func(m Mismatch) bool { return m.Kind == KindEngineDivergence })
	for i, m := range rep.Mismatches {
		if (m.Delta == 3) != (i >= at) {
			t.Fatalf("record %d (%v) is out of place: the Δ 3 divergence is record %d", i, m, at)
		}
	}
	if at == len(rep.Mismatches)-1 {
		t.Fatal("no sampled-outcome record at Δ 3 follows the divergence")
	}
}

// TestSettleExactCheckAboveCrossCheckStates: the exact check needs no
// reference run at the cell, so it covers a Δ 3 cell too large for
// CrossCheckStates, which a per-cell reference never checked.
func TestSettleExactCheckAboveCrossCheckStates(t *testing.T) {
	cfg := Config{CrossCheckStates: exact(t, seedFlat, 0).States}
	if s1, s3 := exact(t, seedFlat, 1).States, exact(t, seedFlat, 3).States; s1 > cfg.CrossCheckStates || s3 <= cfg.CrossCheckStates {
		t.Fatalf("states Δ 1 %d, Δ 3 %d: want Δ 1 within and Δ 3 above CrossCheckStates %d", s1, s3, cfg.CrossCheckStates)
	}
	withEngine(t, 3, dropLeast)
	rep := settled(t, cfg, seedFlat)
	planted := exact(t, seedFlat, 3).Outcomes
	dropLeast(planted)
	oneDivergence(t, rep, diffOutcomes(planted, exact(t, seedFlat, 0).Outcomes))
}

// TestSettleChainAlone: on a sensitive program whose Δ 1 and Δ 3 cells
// are both too large for CrossCheckStates, neither the exact check nor
// the reference applies at Δ 3; an outcome outside out(0) planted there
// is caught by the chain, Δ 3 ⊆ Δ 0, with no reference run at all.
func TestSettleChainAlone(t *testing.T) {
	s1, s3 := exact(t, seedSmallSens, 1).States, exact(t, seedSmallSens, 3).States
	cfg := Config{CrossCheckStates: min(s1, s3) - 1}
	if s0 := exact(t, seedSmallSens, 0).States; s0 <= cfg.CrossCheckStates {
		t.Fatalf("Δ 0 visits %d states, within CrossCheckStates %d", s0, cfg.CrossCheckStates)
	}
	withEngine(t, 3, addPlanted)
	refs := countReferences(t)
	rep := settled(t, cfg, seedSmallSens)
	oneDivergence(t, rep, "outcomes at Δ 3 but not at Δ 0: [planted]")
	if n := refs.Load(); n != 0 {
		t.Errorf("%d reference runs, want none", n)
	}
}

// TestSettleFallback: on a sensitive program the premise fails, so the
// fold runs the reference on the Δ 3 cell itself, and catches a planted
// error there with the detail a cell's own reference gives.
func TestSettleFallback(t *testing.T) {
	if maps.Equal(exact(t, seedSensitive, 1).Outcomes, exact(t, seedSensitive, 0).Outcomes) {
		t.Fatal("seed is not sensitive: out(1) = out(0)")
	}
	withEngine(t, 3, dropLeast)
	refs := countReferences(t)
	rep := settled(t, Config{}, seedSensitive)
	planted := exact(t, seedSensitive, 3).Outcomes
	dropLeast(planted)
	seq, err := mc.ExploreSequentialBounded(Gen(GenConfig{}, seedSensitive), 3, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	oneDivergence(t, rep, diffOutcomes(planted, seq.Outcomes))
	if n := refs.Load(); n != 4*3 {
		t.Errorf("%d reference runs, want 12: three per check", n)
	}
}

// TestSettleRecordReplaysAndShrinks: a fault in the transition code
// both explorers share — here the same outcome planted at Δ 3 in each —
// is invisible to the reference at any single Δ and shows only in
// settle's chain, Δ 3 ⊆ Δ 0. Its record must still replay and shrink:
// both re-check it under a sweep that holds its Δ and the others.
func TestSettleRecordReplaysAndShrinks(t *testing.T) {
	withEngine(t, 3, addPlanted)
	withReference(t, 3, addPlanted)
	rep := settled(t, Config{}, seedSensitive)
	oneDivergence(t, rep, "outcomes at Δ 3 but not at Δ 0: [planted]")
	m := divergences(rep)[0]

	start := Candidate{Program: m.Program, Delta: m.Delta}
	if ok, err := NewArtifact(m, start, ShrinkResult{Candidate: start}).Replay(); err != nil || !ok {
		t.Fatalf("the campaign's record does not replay: reproduced=%v err=%v", ok, err)
	}
	a := ShrinkMismatch(Config{}, m, 0)
	if a.ShrinkSteps == 0 || a.Delta != 3 || a.Kind != KindEngineDivergence {
		t.Fatalf("shrink took %d steps in %d attempts to %s at Δ %d, want a shrunk engine divergence at Δ 3",
			a.ShrinkSteps, a.ShrinkAttempts, a.Kind, a.Delta)
	}
	if ok, err := a.Replay(); err != nil || !ok {
		t.Fatalf("the shrunk artifact does not replay: reproduced=%v err=%v", ok, err)
	}
}

// TestSettleWithoutDeltaZero: a sweep without Δ 0 has no sandwich, so
// each cell runs its own reference, which catches the planted Δ 3 set.
func TestSettleWithoutDeltaZero(t *testing.T) {
	withEngine(t, 3, dropLeast)
	refs := countReferences(t)
	rep := settled(t, Config{Deltas: []int{1, 3}}, seedFlat)
	planted := exact(t, seedFlat, 3).Outcomes
	dropLeast(planted)
	oneDivergence(t, rep, diffOutcomes(planted, exact(t, seedFlat, 3).Outcomes))
	if n := refs.Load(); n != 4*2 {
		t.Errorf("%d reference runs, want 8: one per cell", n)
	}
}

// TestSettleUnsortedSweep: the fold finds the same mismatches whatever
// the order of the sweep; only their order follows the sweep's.
func TestSettleUnsortedSweep(t *testing.T) {
	byDelta := func(rep Report) []Mismatch {
		ms := slices.Clone(rep.Mismatches)
		slices.SortStableFunc(ms, func(a, b Mismatch) int { return a.Delta - b.Delta })
		return ms
	}
	chainOnly := min(exact(t, seedSmallSens, 1).States, exact(t, seedSmallSens, 3).States) - 1
	for _, tc := range []struct {
		name  string
		seed  int64
		cfg   Config
		plant func(map[string]bool)
	}{
		{"exact", seedFlat, Config{}, dropLeast},
		{"fallback", seedSensitive, Config{}, dropLeast},
		{"chain", seedSmallSens, Config{CrossCheckStates: chainOnly}, addPlanted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withSampler(t, func() sampler { return plantingSampler{NewSampler()} })
			withEngine(t, 3, tc.plant)
			sorted, unsorted := tc.cfg, tc.cfg
			sorted.Deltas, unsorted.Deltas = []int{0, 1, 3}, []int{3, 0, 1}
			want := settled(t, sorted, tc.seed)
			if len(divergences(want)) != 1 {
				t.Fatalf("sweep 0,1,3: engine-divergence records %v, want one", divergences(want))
			}
			if got := settled(t, unsorted, tc.seed); !reflect.DeepEqual(byDelta(got), byDelta(want)) {
				t.Fatalf("sweep 3,0,1 mismatches\n%v\ndiffer from sweep 0,1,3's\n%v", got.Mismatches, want.Mismatches)
			}
		})
	}
}

// TestReferenceRunsPerCorpus counts the reference oracle's explorations
// over the campaign corpus: one at each Δ 0 and Δ 1 cell, and at the
// Δ 3 cell only of the 25 programs where out(1) ≠ out(0) — a third fewer
// than one per cell. Machine runs play no part, so none are made.
func TestReferenceRunsPerCorpus(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("walks 1,250 programs' explorations")
	}
	refs := countReferences(t)
	rep := Run(Config{Policies: []tso.DrainPolicy{}, Workers: 2}, 1250, 1)
	if len(rep.Mismatches) != 0 || rep.Coverage.MC.Truncated != 0 {
		t.Fatalf("%d mismatches, %d truncated", len(rep.Mismatches), rep.Coverage.MC.Truncated)
	}
	if n := refs.Load(); n != 2*1250+25 {
		t.Errorf("%d reference runs over 1,250 programs, want 2,525", n)
	}
}
