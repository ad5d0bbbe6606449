package litmus

import "testing"

func TestLoadBufferingForbidden(t *testing.T) {
	neverForbidden(t, LoadBuffering(), 150, 0, 150)
}

func TestIRIWForbidden(t *testing.T) {
	neverForbidden(t, IRIW(), 200, 0)
}

func TestWRCForbidden(t *testing.T) {
	neverForbidden(t, WRC(), 200, 0)
}

func TestSBOneFenceStillRelaxed(t *testing.T) {
	// One-sided fencing is not enough — the reason the asymmetric flag
	// principle needs the Δ wait on the fenced side.
	if sample(t, SBOneFence(), RunConfig{Seeds: 150}).RelaxedN == 0 {
		t.Fatal("SB with a single fence never showed 0/0 — one-sided fences should not restore SC")
	}
}

func TestSB3RingObservesAllZero(t *testing.T) {
	if sample(t, SB3(), RunConfig{Seeds: 100}).RelaxedN == 0 {
		t.Fatal("three-thread SB ring never showed 0/0/0")
	}
}

func TestTwoPlusTwoWForbidden(t *testing.T) {
	neverForbidden(t, TwoPlusTwoW(), 120, 0, 200)
}

func TestRMWActsAsFence(t *testing.T) {
	neverForbidden(t, RMWFlushes(), 150, 0)
}
