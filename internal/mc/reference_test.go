package mc

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fmtKey is the reference key's specification: the fmt rendering the
// explorer used before appendKey, which must write the same bytes.
func fmtKey(s *state) string {
	var b strings.Builder
	for i := range s.pc {
		fmt.Fprintf(&b, "p%d.%d.%v;", s.pc[i], s.wait[i], s.armed[i])
		for _, e := range s.bufs[i] {
			fmt.Fprintf(&b, "%d=%d@%d,", e.addr, e.val, e.age)
		}
		b.WriteByte('|')
		for _, r := range s.regs[i] {
			fmt.Fprintf(&b, "%d,", r)
		}
		b.WriteByte(';')
	}
	for _, v := range s.mem {
		fmt.Fprintf(&b, "%d.", v)
	}
	return b.String()
}

// randState draws a state with negative and multi-digit values, empty
// and long buffers, and armed and disarmed waits. Each thread is as many
// stores as its buffer has entries: a buffer holds only its thread's
// uncommitted stores.
func randState(rng *rand.Rand) *state {
	val := func() int { return rng.Intn(2001) - 1000 }
	p := Program{Threads: make([][]Op, rng.Intn(4)+1), Vars: rng.Intn(4), Regs: rng.Intn(4)}
	for i := range p.Threads {
		for k := rng.Intn(6); k > 0; k-- {
			p.Threads[i] = append(p.Threads[i], St(0, 0))
		}
	}
	s := newState(p)
	for i := range s.pc {
		s.pc[i] = rng.Intn(12)
		s.wait[i] = rng.Intn(5)
		s.armed[i] = rng.Intn(2) == 0
		for range p.Threads[i] {
			s.bufs[i] = append(s.bufs[i], bufEntry{addr: rng.Intn(4), val: val(), age: rng.Intn(6)})
		}
		for r := range s.regs[i] {
			s.regs[i][r] = val()
		}
	}
	for v := range s.mem {
		s.mem[v] = val()
	}
	return s
}

func TestAppendKeyMatchesFmt(t *testing.T) {
	var kb []byte
	prop := func(seed int64) bool {
		s := randState(rand.New(rand.NewSource(seed)))
		kb = s.appendKey(kb[:0])
		if got, want := string(kb), fmtKey(s); got != want {
			t.Logf("appendKey = %q, fmt = %q", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// sequential runs the reference explorer under the default budget and
// fails tb on truncation.
func sequential(tb testing.TB, p Program, delta int) Result {
	tb.Helper()
	res, err := ExploreSequentialBounded(p, delta, DefaultMaxStates)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestSequentialExactBudget: a budget equal to the full state count
// completes; one below it truncates with States == MaxStates.
func TestSequentialExactBudget(t *testing.T) {
	for _, p := range []Program{sb(false), iriwProg()} {
		for _, delta := range []int{0, 2} {
			full := sequential(t, p, delta)
			res, err := ExploreSequentialBounded(p, delta, full.States)
			if err != nil || res.States != full.States || len(res.Outcomes) != len(full.Outcomes) {
				t.Fatalf("Δ=%d budget %d: states=%d outcomes=%d err=%v, want complete",
					delta, full.States, res.States, len(res.Outcomes), err)
			}
			var te *TruncatedError
			_, err = ExploreSequentialBounded(p, delta, full.States-1)
			if !errors.As(err, &te) || te.States != te.MaxStates || te.MaxStates != full.States-1 {
				t.Fatalf("Δ=%d budget %d: err=%v, want truncation at the budget", delta, full.States-1, err)
			}
		}
	}
}

// TestSequentialAllocs pins the reference's allocations: one interned
// key per novel state plus map growth, outcome strings and per-depth
// scratch, never a state clone per transition.
func TestSequentialAllocs(t *testing.T) {
	sbAllocs := testing.AllocsPerRun(20, func() { sequential(t, sb(false), 0) })
	if sbAllocs > 200 {
		t.Errorf("SB Δ=0: %.0f allocs, want ≤ 200", sbAllocs)
	}
	iriw := iriwProg()
	states := sequential(t, iriw, 0).States
	perState := testing.AllocsPerRun(5, func() { sequential(t, iriw, 0) }) / float64(states)
	if perState > 3 {
		t.Errorf("IRIW Δ=0: %.2f allocs/state, want ≤ 3", perState)
	}
	t.Logf("SB Δ=0 %.0f allocs; IRIW Δ=0 %.2f allocs/state", sbAllocs, perState)
}
