package mc

import (
	"fmt"
	"math/rand"
	"testing"
)

// fields renders a state's views field by field, leaving out the slabs
// behind them.
func fields(s *state) string {
	return fmt.Sprint(s.pc, s.wait, s.armed, s.bufs, s.mem, s.regs)
}

// TestStateCopies: copyInto makes a fresh newState, and one that
// already holds another state, equal field by field to the source, and
// the copy shares no memory with it.
func TestStateCopies(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := genProgram(seed)
		rng := rand.New(rand.NewSource(seed))
		dst := newState(p)
		for range 2 {
			src := drawState(p, rng)
			want := fields(src)
			src.copyInto(dst)
			if got := fields(dst); got != want {
				t.Fatalf("seed=%d: copy %s, want %s", seed, got, want)
			}
			src.reset(p)
			if got := fields(dst); got != want {
				t.Fatalf("seed=%d: resetting the source changed the copy to %s", seed, got)
			}
		}
	}
}

// TestStateSteadyStateAllocs: once a state has its program's layout,
// copying into it and decoding into it, in either field width, allocate
// nothing.
func TestStateSteadyStateAllocs(t *testing.T) {
	p := ringProg(3)
	src := drawState(p, rand.New(rand.NewSource(1)))
	narrow, wide := codec{}, codec{wide: true}
	encN, encW := narrow.appendState(nil, src), wide.appendState(nil, src)
	dst := newState(p)
	allocs := testing.AllocsPerRun(100, func() {
		src.copyInto(dst)
		narrow.decodeState(dst, encN)
		wide.decodeState(dst, encW)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per copyInto+decodeState, want 0", allocs)
	}
}
