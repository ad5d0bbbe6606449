package mc

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzEncodeRoundTrip fuzzes the compact state encoding (encode.go)
// that doubles as the parallel engine's visited-set key: for a
// pseudo-random program and a pseudo-random (but shape-valid) state,
// encode → decode → re-encode must reproduce the exact bytes, and the
// decoded state must render the same outcome. A canonicalization bug
// here silently merges distinct states — the worst failure mode the
// checker has — so this target guards the property directly.
func FuzzEncodeRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, seed*31+7)
	}
	f.Add(int64(-1), int64(1<<40))
	f.Fuzz(func(t *testing.T, progSeed, stateSeed int64) {
		p := genProgram(progSeed)
		s := drawState(p, rand.New(rand.NewSource(stateSeed)))

		enc := s.appendState(nil)
		back := newState(p)
		decodeState(back, enc)
		if got, want := back.outcome(), s.outcome(); got != want {
			t.Fatalf("outcome changed across round trip: %q vs %q", got, want)
		}
		re := back.appendState(nil)
		if !bytes.Equal(enc, re) {
			t.Fatalf("re-encoding differs:\n enc %x\n re  %x", enc, re)
		}

		// The register-file encoding used for compact outcome
		// accumulation must round-trip too.
		regsEnc := appendRegs(nil, s.regs)
		regsBack := newState(p).regs
		decodeRegs(regsBack, regsEnc)
		if got, want := outcomeString(regsBack), outcomeString(s.regs); got != want {
			t.Fatalf("regs round trip: %q vs %q", got, want)
		}
	})
}

// drawState draws a pseudo-random state of p with the shape of a
// reachable one: a thread's buffer holds at most as many entries as the
// thread has stores, since it holds only the thread's uncommitted ones.
func drawState(p Program, rng *rand.Rand) *state {
	s := newState(p)
	for i := range p.Threads {
		s.pc[i] = rng.Intn(len(p.Threads[i]) + 1)
		s.wait[i] = rng.Intn(5)
		s.armed[i] = rng.Intn(2) == 1
		for j, n := 0, rng.Intn(min(2, storeCount(p.Threads[i]))+1); j < n; j++ {
			s.bufs[i] = append(s.bufs[i], bufEntry{
				addr: rng.Intn(p.Vars),
				val:  rng.Intn(7) - 3, // negatives exercise zigzag
				age:  rng.Intn(6),
			})
		}
		for r := range s.regs[i] {
			s.regs[i][r] = rng.Intn(9) - 4
		}
	}
	for a := range s.mem {
		s.mem[a] = rng.Intn(9) - 4
	}
	return s
}
