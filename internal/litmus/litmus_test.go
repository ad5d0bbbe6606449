package litmus

import (
	"testing"

	"tbtso/internal/tso"
)

// sample runs test on the machine and fails unless every execution
// completed: a machine that errors on every seed would otherwise
// vacuously pass a "never observed" check.
func sample(t *testing.T, test Test, cfg RunConfig) Report {
	t.Helper()
	rep := Run(test, cfg)
	if len(rep.Errs) > 0 {
		t.Fatalf("%s Δ=%d: %d machine errors, first: %v", test.Name, cfg.Delta, len(rep.Errs), rep.Errs[0])
	}
	if rep.Total == 0 {
		t.Fatalf("%s Δ=%d: no executions", test.Name, cfg.Delta)
	}
	return rep
}

// neverForbidden samples test at each Δ and fails if its Forbidden
// outcome ever appears.
func neverForbidden(t *testing.T, test Test, seeds int, deltas ...uint64) {
	t.Helper()
	for _, delta := range deltas {
		if rep := sample(t, test, RunConfig{Seeds: seeds, Delta: delta}); rep.ForbiddenSeen() {
			t.Fatalf("Δ=%d: %s forbidden outcome %q observed:\n%s", delta, test.Name, test.Forbidden, rep)
		}
	}
}

func TestSBUnfencedShowsReordering(t *testing.T) {
	if sample(t, StoreBuffering(false), RunConfig{Seeds: 100}).RelaxedN == 0 {
		t.Fatal("unfenced SB never showed the 0/0 reordering — machine is too strong")
	}
}

func TestSBFencedNeverBothZero(t *testing.T) {
	neverForbidden(t, StoreBuffering(true), 150, 0)
}

func TestMPForbiddenOnTSO(t *testing.T) {
	neverForbidden(t, MessagePassing(), 150, 0, 200)
}

func TestCoherence(t *testing.T) {
	neverForbidden(t, Coherence(), 150, 0)
}

func TestTBTSOFlagPrincipleHolds(t *testing.T) {
	// The paper's §3 claim: with Δ-bounded buffering, the fence-free
	// asymmetric flag principle never lets both threads miss each
	// other — across all drain policies, seeds, and stall probabilities.
	for _, stall := range []float64{0, 0.3} {
		rep := sample(t, TBTSOFlagPrinciple(100), RunConfig{Seeds: 150, Delta: 100, StallProb: stall})
		if rep.ForbiddenSeen() {
			t.Fatalf("stall=%v: TBTSO flag principle violated:\n%s", stall, rep)
		}
	}
}

func TestTBTSOFlagPrincipleNeedsDelta(t *testing.T) {
	// Same program on a plain-TSO machine: the adversarial policy must
	// exhibit the 0/0 outcome, showing the Δ bound is what makes the
	// fence-free principle sound.
	rep := sample(t, TBTSOFlagPrinciple(0), RunConfig{
		Seeds:    100,
		Policies: []tso.DrainPolicy{tso.DrainAdversarial},
	})
	if !rep.ForbiddenSeen() {
		t.Fatal("0/0 never observed on plain TSO — the Δ bound is not what makes this sound?")
	}
}

func TestFlagNoWaitFails(t *testing.T) {
	// Removing the Δ wait from T1 re-breaks the principle even on a
	// TBTSO machine, provided Δ is large enough for T1's read to race
	// ahead of T0's drain.
	rep := sample(t, FlagPrincipleNoWait(), RunConfig{
		Seeds:    100,
		Delta:    500,
		Policies: []tso.DrainPolicy{tso.DrainAdversarial},
	})
	if rep.RelaxedN == 0 {
		t.Fatal("expected 0/0 without the Δ wait")
	}
}

func TestOnceReportsOutcome(t *testing.T) {
	out, trace, err := OnceTraced(StoreBuffering(true), tso.Config{Policy: tso.DrainEager, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out != "T0:r0=1 T1:r0=1" {
		t.Fatalf("fenced SB outcome %q, want both threads to see the other's store", out)
	}
	if len(trace) == 0 {
		t.Fatal("OnceTraced returned no trace events")
	}
}

func TestAllListsEveryTest(t *testing.T) {
	all := All(4)
	if len(all) != 14 {
		t.Fatalf("All() returned %d tests, want 14", len(all))
	}
	seen := map[string]bool{}
	for _, test := range all {
		if test.Name == "" || seen[test.Name] {
			t.Fatalf("duplicate or empty test name %q", test.Name)
		}
		seen[test.Name] = true
		if test.Forbidden == "" && test.Relaxed == "" {
			t.Fatalf("%s has neither a Forbidden nor a Relaxed outcome", test.Name)
		}
	}
}
