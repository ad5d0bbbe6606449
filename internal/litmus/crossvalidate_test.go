package litmus

import (
	"slices"
	"strings"
	"testing"

	"tbtso/internal/fuzz"
	"tbtso/internal/mc"
)

// crossWait is TBTSO-flag's wait in the checker-side tests: one more
// transition than the Δ at which the cross-check proves the principle.
const crossWait = 13

// registers returns an outcome's register names, values dropped.
func registers(outcome string) []string {
	f := strings.Fields(outcome)
	for i := range f {
		f[i], _, _ = strings.Cut(f[i], "=")
	}
	return f
}

// The three tests below run every litmus test's one program on both the
// clocked machine and the model checker.

// TestSampledOutcomesWithinExhaustiveSet: every machine-sampled outcome
// is in the checker's set at the covering Δ (fuzz.CoverDelta), on plain
// TSO (machine Δ 0) and bounded (machine Δ 1, 3 and 100).
func TestSampledOutcomesWithinExhaustiveSet(t *testing.T) {
	for _, c := range []struct {
		name   string
		deltas []uint64
	}{{"plain_TSO", []uint64{0}}, {"bounded", []uint64{1, 3, 100}}} {
		t.Run(c.name, func(t *testing.T) {
			for _, test := range All(crossWait) {
				t.Run(test.Name, func(t *testing.T) {
					for _, delta := range c.deltas {
						cover := fuzz.CoverDelta(test.Prog, delta)
						admitted := mc.Explore(test.Prog, cover)
						for out := range sample(t, test, RunConfig{Seeds: 20, Delta: delta}).Counts {
							if !admitted.Has(out) {
								t.Errorf("machine Δ=%d sampled %q, outside the checker's set at Δ=%d: %v",
									delta, out, cover, admitted.List())
							}
						}
					}
				})
			}
		})
	}
}

// TestExhaustiveMatchesSampledForbidden: on plain TSO (checker Δ 0) the
// Forbidden outcome is unreachable and the Relaxed one reachable —
// except that a Δ-waiting test's Forbidden outcome is reachable there
// and proven unreachable at Δ = crossWait-1. Every outcome string must
// name exactly the program's registers.
func TestExhaustiveMatchesSampledForbidden(t *testing.T) {
	for _, test := range All(crossWait) {
		t.Run(test.Name, func(t *testing.T) {
			plain := mc.Explore(test.Prog, 0)
			shape := registers(plain.List()[0])
			for _, want := range []string{test.Forbidden, test.Relaxed} {
				if want != "" && !slices.Equal(registers(want), shape) {
					t.Fatalf("outcome %q does not name the program's registers %v", want, shape)
				}
			}
			if test.Relaxed != "" && !plain.Has(test.Relaxed) {
				t.Errorf("plain TSO never reaches the relaxed outcome %q", test.Relaxed)
			}
			switch {
			case test.Forbidden == "":
			case test.NeedsDelta():
				if !plain.Has(test.Forbidden) {
					t.Errorf("plain TSO misses %q, which only the Δ wait should exclude", test.Forbidden)
				}
				if mc.Explore(test.Prog, crossWait-1).Has(test.Forbidden) {
					t.Errorf("TBTSO[Δ=%d] with wait %d admits %q", crossWait-1, crossWait, test.Forbidden)
				}
			case plain.Has(test.Forbidden):
				t.Errorf("plain TSO reaches the forbidden outcome %q", test.Forbidden)
			}
		})
	}
}

// TestEnginesAgreeOnLitmusPrograms: the parallel engine (all
// reductions) and the sequential reference return identical sets at
// Δ 0, 1, 3 and 8.
func TestEnginesAgreeOnLitmusPrograms(t *testing.T) {
	for _, test := range All(crossWait) {
		t.Run(test.Name, func(t *testing.T) {
			for _, delta := range []int{0, 1, 3, 8} {
				want, err := mc.ExploreSequentialBounded(test.Prog, delta, mc.DefaultMaxStates)
				if err != nil {
					t.Fatalf("Δ=%d: %v", delta, err)
				}
				got, err := mc.ExploreParallel(test.Prog, delta, mc.Options{})
				if err != nil {
					t.Fatalf("Δ=%d: %v", delta, err)
				}
				if !slices.Equal(got.List(), want.List()) {
					t.Errorf("Δ=%d: engines disagree: parallel %v, sequential %v", delta, got.List(), want.List())
				}
			}
		})
	}
}
