package mc

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzEncodeRoundTrip fuzzes the fixed-width state encoding (encode.go)
// that doubles as the parallel engine's visited-set key: for a
// pseudo-random program and a pseudo-random (but shape-valid) state,
// encode → decode → re-encode must reproduce the exact bytes, and the
// decoded state must render the same outcome. Odd state seeds draw
// states whose fields overflow a byte, for the eight-byte width; the
// rest are encoded in both widths, which must order thread-local
// encodings alike, so symmetry picks the same representative in
// either. A canonicalization bug here silently merges distinct states —
// the worst failure mode the checker has — so this target guards the
// property directly.
func FuzzEncodeRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, seed*31+7)
	}
	f.Add(int64(-1), int64(1<<40))
	f.Fuzz(func(t *testing.T, progSeed, stateSeed int64) {
		p := genProgram(progSeed)
		rng := rand.New(rand.NewSource(stateSeed))
		s, other := drawState(p, rng), drawState(p, rng)
		codecs := []codec{{}, {wide: true}}
		if stateSeed%2 != 0 {
			widen(s, rng)
			codecs = codecs[1:]
		}
		for _, c := range codecs {
			enc := c.appendState(nil, s)
			back := newState(p)
			c.decodeState(back, enc)
			if got, want := FormatOutcome(back.regs), FormatOutcome(s.regs); got != want {
				t.Fatalf("wide=%v: outcome changed across round trip: %q vs %q", c.wide, got, want)
			}
			if re := c.appendState(nil, back); !bytes.Equal(enc, re) {
				t.Fatalf("wide=%v: re-encoding differs:\n enc %x\n re  %x", c.wide, enc, re)
			}

			// The register-file encoding used for compact outcome
			// accumulation must round-trip too.
			regsBack := newState(p).regs
			c.decodeRegs(regsBack, c.appendRegs(nil, s.regs))
			if got, want := FormatOutcome(regsBack), FormatOutcome(s.regs); got != want {
				t.Fatalf("wide=%v: regs round trip: %q vs %q", c.wide, got, want)
			}
		}
		if len(codecs) == 2 {
			order := func(c codec) int {
				return bytes.Compare(c.appendThread(nil, s, 0), c.appendThread(nil, other, 0))
			}
			if n, w := order(codecs[0]), order(codecs[1]); n != w {
				t.Fatalf("thread 0 orders %d in one byte, %d in eight", n, w)
			}
		}
	})
}

// widen moves s's fields past what one byte holds, keeping its shape.
func widen(s *state, rng *rand.Rand) {
	big := func() int { return rng.Intn(1<<20) - 1<<19 }
	for i := range s.pc {
		s.wait[i] += 256 + rng.Intn(1000)
		for j := range s.bufs[i] {
			s.bufs[i][j].val = big()
			s.bufs[i][j].age += 256
		}
		for r := range s.regs[i] {
			s.regs[i][r] = big()
		}
	}
	for a := range s.mem {
		s.mem[a] = big()
	}
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
