package machalg

import (
	"errors"
	"testing"

	"tbtso/internal/mc"
)

// noMiss asserts no outcome of res witnesses an FFHP hazard miss.
func noMiss(t *testing.T, res mc.Result, rounds, readers int, label string) {
	t.Helper()
	for o := range res.Outcomes {
		if MCFFHPMissed(o, rounds, readers) {
			t.Fatalf("%s: hazard miss admitted: %q", label, o)
		}
	}
}

// TestFFHPTwoRoundExhaustive checks two full FFHP Protect+Scan rounds
// — the §4 fence-free hazard pointers — exhaustively: under TBTSO[Δ]
// with an adequate wait the reclaimer's scan can NEVER miss a hazard a
// reader validated, in any round; under plain TSO the miss is real.
func TestFFHPTwoRoundExhaustive(t *testing.T) {
	const delta = 3
	// Two readers, two rounds: every interleaving and drain schedule.
	safe := mc.Explore(MCFFHP(2, 2, delta+1), delta)
	noMiss(t, safe, 2, 2, "TBTSO[3] 2x2")
	if got := len(safe.Outcomes); got != 196 {
		t.Fatalf("outcome set changed: %d outcomes, want 196", got)
	}

	// Plain TSO, same program: the unfenced protect store can hide in
	// the buffer past the scan — the miss witness must appear.
	unsafe := mc.Explore(MCFFHP(2, 2, delta+1), 0)
	miss := 0
	for o := range unsafe.Outcomes {
		if MCFFHPMissed(o, 2, 2) {
			miss++
		}
	}
	if miss == 0 {
		t.Fatalf("plain TSO admits no hazard miss — model too strong (%d outcomes)", len(unsafe.Outcomes))
	}
	if got := len(unsafe.Outcomes); got != 576 {
		t.Fatalf("TSO outcome set changed: %d outcomes, want 576", got)
	}
}

// TestFFHPThreeRoundExhaustiveScale is the scale headline: three
// Protect+Scan rounds between two readers and a reclaimer — 531,248
// canonical states, fully enumerated by the parallel engine in under a
// second, while the reference explorer cannot even cover a 400k-state
// budget in several seconds (see the truncation check below). This
// fragment was beyond exhaustive reach before the parallel engine.
func TestFFHPThreeRoundExhaustiveScale(t *testing.T) {
	const delta = 3
	p := MCFFHP(3, 2, delta+1)
	res, err := mc.ExploreParallel(p, delta, mc.Options{MaxStates: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	noMiss(t, res, 3, 2, "TBTSO[3] 3x2")
	if got := len(res.Outcomes); got != 5041 {
		t.Fatalf("outcome set changed: %d outcomes, want 5041", got)
	}
	if res.States < 500_000 {
		t.Fatalf("states = %d, want the full ≥5e5-state space", res.States)
	}

	if testing.Short() {
		return
	}
	// The reference explorer drowns: a 300k-state budget — well under
	// this fragment's canonical space, far under its unreduced one —
	// truncates.
	if _, err := mc.ExploreSequentialBounded(p, delta, 300_000); !errors.Is(err, mc.ErrTruncated) {
		t.Fatalf("reference explorer unexpectedly covered the space (err=%v)", err)
	}
}

// TestFFBLRevocationExhaustiveDeltaSweep proves the FFBL
// acquire/revoke/re-bias fragment's mutual exclusion at every
// Δ ∈ {1..4} with the matching adequate wait: the fence-free owner
// and a revoker can never both conclude they hold the lock.
func TestFFBLRevocationExhaustiveDeltaSweep(t *testing.T) {
	for delta := 1; delta <= 4; delta++ {
		res := mc.Explore(MCFFBL(2, delta+1), delta)
		for o := range res.Outcomes {
			if MCFFBLOverlap(o, 2) {
				t.Fatalf("TBTSO[%d]: mutual exclusion violated: %q", delta, o)
			}
		}
		if got := len(res.Outcomes); got != 20 {
			t.Fatalf("Δ=%d: outcome set changed: %d outcomes, want 20", delta, got)
		}
	}

	// Plain TSO: the overlap is admitted — the bound is load-bearing.
	res := mc.Explore(MCFFBL(2, 5), 0)
	overlap := 0
	for o := range res.Outcomes {
		if MCFFBLOverlap(o, 2) {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("plain TSO admits no owner/revoker overlap — model too strong")
	}

	// An inadequate wait under a large Δ re-opens the window.
	res = mc.Explore(MCFFBL(1, 1), 10)
	found := false
	for o := range res.Outcomes {
		if MCFFBLOverlap(o, 1) {
			found = true
		}
	}
	if !found {
		t.Fatal("TBTSO[10] with wait=1: overlap should be admitted")
	}
}

// TestFFBLRevocationExhaustiveScale: four identical revokers against
// the fence-free owner — 248,291 canonical states (symmetry folds the
// revokers), fully enumerated in well under a second; the reference
// explorer truncates a 300k budget on the unreduced space. The second
// previously-out-of-reach fragment. The exact count pins symmetry
// canonicalization, which swaps identical threads' contents in the
// checker's state slabs.
func TestFFBLRevocationExhaustiveScale(t *testing.T) {
	const delta = 2
	p := MCFFBL(4, delta+1)
	res, err := mc.ExploreParallel(p, delta, mc.Options{MaxStates: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for o := range res.Outcomes {
		if MCFFBLOverlap(o, 4) {
			t.Fatalf("TBTSO[%d]: mutual exclusion violated: %q", delta, o)
		}
	}
	if got := len(res.Outcomes); got != 816 {
		t.Fatalf("outcome set changed: %d outcomes, want 816", got)
	}
	if res.States != 248_291 {
		t.Fatalf("states = %d, want 248291", res.States)
	}
	// Re-bias visibility: some outcome has the owner observing the
	// transferred bias word.
	rebias := false
	for o := range res.Outcomes {
		if regs := mustParseOutcome(o, 5, 2); regs[0][1] == 2 {
			rebias = true
			break
		}
	}
	if !rebias {
		t.Fatal("no outcome shows the owner observing the re-bias")
	}

	if testing.Short() {
		return
	}
	if _, err := mc.ExploreSequentialBounded(p, delta, 300_000); !errors.Is(err, mc.ErrTruncated) {
		t.Fatalf("reference explorer unexpectedly covered the space (err=%v)", err)
	}
}
