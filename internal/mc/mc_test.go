package mc

import (
	"errors"
	"strings"
	"testing"
)

// sb builds the store-buffering litmus program, optionally fenced.
func sb(fenced bool) Program {
	t0 := []Op{St(0, 1)}
	t1 := []Op{St(1, 1)}
	if fenced {
		t0 = append(t0, Fence())
		t1 = append(t1, Fence())
	}
	t0 = append(t0, Ld(1, 0))
	t1 = append(t1, Ld(0, 0))
	return Program{Threads: [][]Op{t0, t1}, Vars: 2, Regs: 1}
}

func TestSBExhaustiveOutcomeSet(t *testing.T) {
	res := Explore(sb(false), 0)
	want := []string{
		"T0:r0=0 T1:r0=0", // the TSO relaxation
		"T0:r0=0 T1:r0=1",
		"T0:r0=1 T1:r0=0",
		"T0:r0=1 T1:r0=1",
	}
	got := res.List()
	if len(got) != len(want) {
		t.Fatalf("outcomes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcomes = %v, want %v", got, want)
		}
	}
}

func TestSBFencedExcludesZeroZero(t *testing.T) {
	res := Explore(sb(true), 0)
	if res.Has("T0:r0=0 T1:r0=0") {
		t.Fatalf("fenced SB admits 0/0: %v", res.List())
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("fenced SB outcomes = %v, want exactly 3", res.List())
	}
}

func TestMPExhaustive(t *testing.T) {
	// Wd1; Wf1 || Rf; Rd — f=1 ∧ d=0 impossible under TSO.
	p := Program{
		Threads: [][]Op{
			{St(0, 1), St(1, 1)},
			{Ld(1, 0), Ld(0, 1)},
		},
		Vars: 2, Regs: 2,
	}
	res := Explore(p, 0)
	for o := range res.Outcomes {
		if strings.Contains(o, "T1:r0=1") && strings.Contains(o, "T1:r1=0") {
			t.Fatalf("MP forbidden outcome admitted: %v", res.List())
		}
	}
}

// TestFlagPrincipleExhaustive is the headline: the asymmetric flag
// principle verified EXHAUSTIVELY at a small bound. T0 raises flag0
// with no fence and looks; T1 raises flag1, fences, waits out the
// bound, and looks. 0/0 must be impossible under TBTSO[Δ] and possible
// under plain TSO.
func TestFlagPrincipleExhaustive(t *testing.T) {
	const delta = 3
	prog := func(wait int) Program {
		return Program{
			Threads: [][]Op{
				{St(0, 1), Ld(1, 0)},
				{St(1, 1), Fence(), Wait(wait), Ld(0, 0)},
			},
			Vars: 2, Regs: 1,
		}
	}
	// TBTSO[Δ] with an adequate wait: exhaustive proof of the principle
	// at this bound.
	res := Explore(prog(delta+1), delta)
	if res.Has("T0:r0=0 T1:r0=0") {
		t.Fatalf("TBTSO[%d]: 0/0 admitted despite the wait: %v", delta, res.List())
	}
	// Plain TSO, same program: 0/0 is admitted (the wait elapses but
	// nothing bounds the buffer).
	res = Explore(prog(delta+1), 0)
	if !res.Has("T0:r0=0 T1:r0=0") {
		t.Fatalf("plain TSO: 0/0 not admitted — model too strong: %v", res.List())
	}
	// TBTSO but with an inadequate wait: 0/0 must reappear. The bound
	// must exceed the slow side's own fence overhead (a handful of
	// transitions) for the window to exist at all, so use a larger Δ.
	res = Explore(prog(1), 10)
	if !res.Has("T0:r0=0 T1:r0=0") {
		t.Fatalf("TBTSO[10] with wait=1: 0/0 should be admitted: %v", res.List())
	}
	// And the same larger Δ with an adequate wait is safe again.
	res = Explore(prog(11), 10)
	if res.Has("T0:r0=0 T1:r0=0") {
		t.Fatalf("TBTSO[10] with wait=11: 0/0 admitted: %v", res.List())
	}
}

func TestDeltaOneApproachesSC(t *testing.T) {
	// Δ=1 forces every store out before the next transition completes —
	// 0/0 impossible even without fences.
	res := Explore(sb(false), 1)
	if res.Has("T0:r0=0 T1:r0=0") {
		t.Fatalf("TBTSO[1] still admits 0/0: %v", res.List())
	}
}

func TestRMWCounterExhaustive(t *testing.T) {
	// Two threads each RMW-add 1: final memory must be 2, and each
	// thread reads a distinct old value.
	p := Program{
		Threads: [][]Op{
			{RMW(0, 1, 0)},
			{RMW(0, 1, 0)},
		},
		Vars: 1, Regs: 1,
	}
	res := Explore(p, 0)
	want := map[string]bool{
		"T0:r0=0 T1:r0=1": true,
		"T0:r0=1 T1:r0=0": true,
	}
	for o := range res.Outcomes {
		if !want[o] {
			t.Fatalf("unexpected RMW outcome %q", o)
		}
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %v", res.List())
	}
}

func TestRMWDrainsBeforeExecuting(t *testing.T) {
	// A thread's own RMW cannot run ahead of its buffered store:
	// T0: St x 1; RMW y — then T1 reading y==1 must also see x==1.
	p := Program{
		Threads: [][]Op{
			{St(0, 1), RMW(1, 1, 0)},
			{Ld(1, 0), Ld(0, 1)},
		},
		Vars: 2, Regs: 2,
	}
	res := Explore(p, 0)
	for o := range res.Outcomes {
		if strings.Contains(o, "T1:r0=1") && strings.Contains(o, "T1:r1=0") {
			t.Fatalf("RMW did not act as a fence: %v", res.List())
		}
	}
}

func TestForwarding(t *testing.T) {
	// A thread reads its own buffered store.
	p := Program{
		Threads: [][]Op{{St(0, 7), Ld(0, 0)}},
		Vars:    1, Regs: 1,
	}
	res := Explore(p, 0)
	if len(res.Outcomes) != 1 || !res.Has("T0:r0=7") {
		t.Fatalf("forwarding broken: %v", res.List())
	}
}

func TestEmptyProgram(t *testing.T) {
	res := Explore(Program{}, 0)
	if res.States != 1 {
		t.Fatalf("states = %d", res.States)
	}
}

func TestStateCountsReported(t *testing.T) {
	res := Explore(sb(false), 2)
	if res.States < 10 {
		t.Fatalf("suspiciously few states: %d", res.States)
	}
}

func TestExploreBudgetTruncates(t *testing.T) {
	res, err := ExploreParallel(sb(false), 0, Options{MaxStates: 5})
	if err == nil {
		t.Fatal("a 5-state budget cannot complete SB")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T, want *TruncatedError", err)
	}
	if te.MaxStates != 5 || te.States != 5 {
		t.Fatalf("TruncatedError = %+v, want budget and states of 5", te)
	}
	if !strings.Contains(te.Shape, "2 threads") {
		t.Fatalf("TruncatedError.Shape = %q, want the program shape", te.Shape)
	}
	if res.States != 5 {
		t.Fatalf("states = %d, want exactly the budget", res.States)
	}
	res, err = ExploreParallel(sb(false), 0, Options{MaxStates: DefaultMaxStates})
	if err != nil || len(res.Outcomes) != 4 {
		t.Fatalf("full budget: err=%v outcomes=%d", err, len(res.Outcomes))
	}
}

func TestExplorePanicNamesShapeAndStates(t *testing.T) {
	// A large random-ish program truncated by a tiny budget via the
	// sequential path exercises the error text; Explore's panic carries
	// the same *TruncatedError message.
	_, err := ExploreSequentialBounded(sb(false), 0, 3)
	if err == nil {
		t.Fatal("want truncation")
	}
	msg := err.Error()
	for _, frag := range []string{"truncated at 3", "2 threads", "Δ=0"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("error %q missing %q", msg, frag)
		}
	}
}

// TestExploreAllocs pins the engine's allocations (AllocsPerRun runs at
// GOMAXPROCS 1, so one worker): nothing per state beyond the visited
// set's geometric growth, and on a reused Explorer nothing per call but
// the result: its outcome map and the outcome strings.
func TestExploreAllocs(t *testing.T) {
	var x Explorer
	explore := func(p Program, delta int) Result {
		res, err := x.Explore(p, delta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ring := ringProg(4)
	states := explore(ring, 2).States
	perState := testing.AllocsPerRun(1, func() { x = Explorer{}; explore(ring, 2) }) / float64(states)
	if perState > 0.1 {
		t.Errorf("Ring4 Δ=2: %.3f allocs/state, want ≤ 0.1", perState)
	}
	p := sb(false)
	outcomes := len(explore(p, 0).Outcomes)
	sbAllocs := testing.AllocsPerRun(20, func() { explore(p, 0) })
	if want := float64(2 + outcomes); sbAllocs > want {
		t.Errorf("reused SB Δ=0: %.0f allocs, want ≤ %.0f: the map, its table and %d outcomes", sbAllocs, want, outcomes)
	}
	t.Logf("Ring4 Δ=2 %.3f allocs/state; reused SB Δ=0 %.0f allocs", perState, sbAllocs)
}
