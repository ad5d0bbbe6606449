package tso

import "math/rand"

// fastSource is a drop-in replacement for math/rand.NewSource's
// generator (the additive lagged-Fibonacci rngSource) producing the
// BIT-IDENTICAL stream for every seed — pinned by
// TestFastSourceMatchesStdlib — with one structural difference: Seed
// is O(1) and register words are materialized lazily, on first read.
//
// Why it exists: the machine re-seeds on every Reset so that
// (program, Config.Seed) fully determines a run. The stdlib seeds by
// walking a 1841-step Lehmer chain through Schrage's algorithm to fill
// all 607 register words up front; profiles showed that re-seeding was
// >60% of total direct-execution campaign time, while a typical run
// draws only a few hundred values — most of the register is filled and
// thrown away. fastSource instead stores the seed and jumps the Lehmer
// chain directly to the three positions backing each word the moment
// that word is first read (x_j = 48271^j·x₀ mod 2³¹−1 via a
// precomputed table of multiplier powers), so a run pays only for the
// register words its draws actually touch.
//
// Replacing the stream itself with a cheaper generator would have been
// faster still, but every committed artifact keyed by a scheduler seed
// (certs/, planted-control shrink results, the DrainRandom golden
// pins) depends on math/rand's stream; fastSource keeps them all
// byte-stable.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// lehmerPow[j] = 48271^j mod (2³¹−1): the jump table for seeding chain
// position j. Word i of the register needs positions 21+3i, 22+3i and
// 23+3i (after the stdlib's 20-step warm-up), so the table spans the
// full 1841-step chain.
var lehmerPow [23 + 3*rngLen + 1]uint64

func init() {
	lehmerPow[0] = 1
	for j := 1; j < len(lehmerPow); j++ {
		lehmerPow[j] = mulmod(lehmerPow[j-1], 48271)
	}
}

// mulmod returns a·b mod (2³¹−1) for a, b < 2³¹, via two
// Mersenne-prime folds of the 62-bit product and one conditional
// subtract — no division.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = (p & int32max) + (p >> 31)
	p = (p & int32max) + (p >> 31)
	if p >= int32max {
		p -= int32max
	}
	return p
}

// NewRand returns a *rand.Rand on a fastSource: it draws exactly what
// rand.New(rand.NewSource(seed)) draws, and its Seed is O(1), for
// callers that reseed for every item they make, as the machine reseeds
// its own source for every run and the fuzz generator for every
// program.
func NewRand(seed int64) *rand.Rand {
	r := rand.New(new(fastSource))
	r.Seed(seed)
	return r
}

type fastSource struct {
	tap, feed int
	x0        uint64 // canonical Lehmer seed of the current generation
	gen       uint32 // current seed generation; vec[i] is live iff vgen[i] == gen
	vec       [rngLen]int64
	vgen      [rngLen]uint32
}

// Seed (re)initializes the generator to the state
// math/rand.NewSource(seed) would hold, in O(1): it canonicalizes the
// seed and invalidates the register by bumping the generation stamp.
// Words are computed on first read by word().
func (s *fastSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)

	s.gen++
	if s.gen == 0 { // stamp wrap-around: stale stamps could read as live
		s.vgen = [rngLen]uint32{}
		s.gen = 1
	}
}

// word returns register word i, materializing it from the seed chain
// on first access: the same three packed Lehmer values XORed with the
// cooked table that rngSource.Seed computes, with the chain entered
// directly at position 21+3i via the jump table.
func (s *fastSource) word(i int) int64 {
	if s.vgen[i] == s.gen {
		return s.vec[i]
	}
	j := 21 + 3*i
	u := mulmod(lehmerPow[j], s.x0) << 40
	u ^= mulmod(lehmerPow[j+1], s.x0) << 20
	u ^= mulmod(lehmerPow[j+2], s.x0)
	v := int64(u) ^ fastRNGCooked[i]
	s.vec[i] = v
	s.vgen[i] = s.gen
	return v
}

// Uint64 returns the next raw 64-bit value of the lagged-Fibonacci
// recurrence, identical to rngSource.Uint64.
func (s *fastSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	s.vgen[s.feed] = s.gen
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *fastSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
