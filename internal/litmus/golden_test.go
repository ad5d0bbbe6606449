package litmus

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"tbtso/internal/mc"
)

// goldenDeltas are the checker bounds testdata/outcomes.golden freezes.
var goldenDeltas = []int{0, 1, 3}

// renderSets renders the outcome set of every test at every golden Δ,
// as explore computes it: a "<name> Δ=<d>" line followed by one
// indented outcome per line, sorted.
func renderSets(explore func(mc.Program, int) (mc.Result, error)) (string, error) {
	var b strings.Builder
	for _, test := range All(crossWait) {
		for _, delta := range goldenDeltas {
			res, err := explore(test.Prog, delta)
			if err != nil {
				return "", fmt.Errorf("%s Δ=%d: %w", test.Name, delta, err)
			}
			fmt.Fprintf(&b, "%s Δ=%d\n", test.Name, delta)
			for _, o := range res.List() {
				fmt.Fprintf(&b, "  %s\n", o)
			}
		}
	}
	return b.String(), nil
}

// TestGoldenOutcomeSets pins both checker engines to the committed
// outcome sets of every litmus test at Δ 0, 1 and 3, so a change to
// either engine, or to a test's program, shows up as a diff.
func TestGoldenOutcomeSets(t *testing.T) {
	golden, err := os.ReadFile("testdata/outcomes.golden")
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]func(mc.Program, int) (mc.Result, error){
		"sequential": func(p mc.Program, d int) (mc.Result, error) {
			return mc.ExploreSequentialBounded(p, d, mc.DefaultMaxStates)
		},
		"parallel": func(p mc.Program, d int) (mc.Result, error) { return mc.ExploreParallel(p, d, mc.Options{}) },
	}
	for name, explore := range engines {
		got, err := renderSets(explore)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == string(golden) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s engine differs from testdata/outcomes.golden at line %d: got %q, want %q",
					name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s engine output has %d lines, golden %d", name, len(gl), len(wl))
	}
}

// TestDeltaMonotone checks the ordering argument behind every TBTSO
// claim on each litmus program: a looser bound only adds behaviours,
// out(Δ) ⊆ out(Δ+1) ⊆ out(TSO), for Δ 1..10.
func TestDeltaMonotone(t *testing.T) {
	for _, test := range All(crossWait) {
		plain := mc.Explore(test.Prog, 0)
		prev := mc.Explore(test.Prog, 1)
		for delta := 1; delta <= 10; delta++ {
			next := mc.Explore(test.Prog, delta+1)
			for _, o := range prev.List() {
				if !next.Has(o) {
					t.Errorf("%s: %q reachable at Δ=%d but not at Δ=%d", test.Name, o, delta, delta+1)
				}
			}
			for _, o := range next.List() {
				if !plain.Has(o) {
					t.Errorf("%s: %q reachable at Δ=%d but not on plain TSO", test.Name, o, delta+1)
				}
			}
			prev = next
		}
	}
}
