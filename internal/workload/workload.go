// Package workload generates the evaluation's workloads (§7): key
// universes sized for target hash-chain lengths, the read-only and
// 3:1 read/write operation mixes, busy-wait interarrival delays for
// the lock benchmark, and the paper's four lock access patterns.
package workload

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"tbtso/internal/vclock"
)

// UniverseForChain returns the key-universe size U that yields an
// average chain length of L in a table with the given bucket count:
// the benchmark keeps the table at U/2 resident keys (§7.1), so
// U = 2·L·buckets.
func UniverseForChain(chainLen, buckets int) uint64 {
	return uint64(2 * chainLen * buckets)
}

// The chain lengths the evaluation tests (§7.1): short as in real hash
// tables, two mediums, and long.
var ChainLengths = []int{4, 20, 80, 256}

// Mix selects the §7.1 operation mix.
type Mix int

// The mixes of Figure 6.
const (
	// ReadOnly: all threads perform random lookups.
	ReadOnly Mix = iota
	// ReadWrite: 3/4 of the threads are readers (lookups over the whole
	// universe), 1/4 are updaters alternating insert/remove over an
	// owned partition.
	ReadWrite
)

func (m Mix) String() string {
	if m == ReadOnly {
		return "read-only"
	}
	return "read-write"
}

// Role is a worker's role under a Mix.
type Role int

// Worker roles.
const (
	Reader Role = iota
	Updater
)

// RoleOf assigns roles for the ReadWrite mix: every 4th worker is an
// updater (so updaters = ceil(n/4), readers = the rest), matching the
// paper's ¾n readers / ¼n updaters split.
func RoleOf(mix Mix, tid int) Role {
	if mix == ReadWrite && tid%4 == 3 {
		return Updater
	}
	return Reader
}

// KeyGen generates uniform random keys from a universe, deterministic
// per seed (a PCG stream, math/rand/v2). Not safe for concurrent use;
// give each worker its own.
type KeyGen struct {
	rng *rand.Rand
	u   uint64
}

// NewKeyGen returns a generator over [0, universe).
func NewKeyGen(universe uint64, seed int64) *KeyGen {
	return NewKeyGenFrom(rand.New(rand.NewPCG(uint64(seed), 0)), universe)
}

// NewKeyGenFrom returns a generator over [0, universe) drawing from
// rng, for a caller that owns and reseeds the source.
func NewKeyGenFrom(rng *rand.Rand, universe uint64) *KeyGen {
	return &KeyGen{rng: rng, u: universe}
}

// Next returns the next key.
func (g *KeyGen) Next() uint64 {
	return g.rng.Uint64N(g.u)
}

// Partition returns updater tid's owned key slice [lo, hi): updaters
// insert()/remove() each item of an equally-sized owned subset (§7.1).
func Partition(universe uint64, updaterIdx, updaters int) (lo, hi uint64) {
	span := universe / uint64(updaters)
	lo = span * uint64(updaterIdx)
	hi = lo + span
	if updaterIdx == updaters-1 {
		hi = universe
	}
	return lo, hi
}

// SpinWait busy-waits for approximately d, simulating application work
// between lock acquisitions. It yields periodically so the benchmark
// also behaves on machines with fewer cores than workers (on the
// paper's testbed every thread owns a hardware thread; under
// GOMAXPROCS=1 an unyielding spin would quantize all progress to the
// runtime's ~10 ms preemption tick).
func SpinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := vclock.Now() + int64(d)
	for i := 0; vclock.Now() < deadline; i++ {
		if i%32 == 31 {
			runtime.Gosched()
		}
	}
}

// Weighted draws indices with the given relative integer weights — the
// generic discrete distribution behind the fuzzer's op-kind mix
// (internal/fuzz) and any workload that needs a skewed categorical
// choice. A zero total weight always returns 0. Not safe for concurrent
// use; like KeyGen, give each worker its own (or share one *rand.Rand
// across several distributions for a single deterministic stream).
type Weighted struct {
	rng     *rand.Rand
	weights []int
	total   int
}

// NewWeighted returns a sampler over indices 0..len(weights)-1 drawing
// index i with probability weights[i]/sum. Negative weights panic.
func NewWeighted(rng *rand.Rand, weights ...int) *Weighted {
	w := &Weighted{rng: rng, weights: append([]int(nil), weights...)}
	for i, x := range weights {
		if x < 0 {
			panic(fmt.Sprintf("workload: negative weight %d at index %d", x, i))
		}
		w.total += x
	}
	return w
}

// Next draws the next index.
func (w *Weighted) Next() int {
	if w.total == 0 {
		return 0
	}
	n := w.rng.IntN(w.total)
	for i, x := range w.weights {
		if n < x {
			return i
		}
		n -= x
	}
	return len(w.weights) - 1 // unreachable
}

// Interarrival draws exponential interarrival delays with the given
// mean, the lock benchmark's "random interarrival delay (simulating
// application work)" (§7.2). A zero mean always returns 0.
type Interarrival struct {
	rng  *rand.Rand
	mean float64
}

// NewInterarrival returns a generator.
func NewInterarrival(mean time.Duration, seed int64) *Interarrival {
	return &Interarrival{rng: rand.New(rand.NewPCG(uint64(seed), 0)), mean: float64(mean)}
}

// Next draws the next delay.
func (ia *Interarrival) Next() time.Duration {
	if ia.mean == 0 {
		return 0
	}
	return time.Duration(ia.rng.ExpFloat64() * ia.mean)
}

// LockPattern is one of Figure 8's four access patterns.
type LockPattern struct {
	Name string
	// Mean interarrival delays; 0 = arrive immediately.
	OwnerMean time.Duration
	OtherMean time.Duration
	// OwnerStall, if nonzero, makes the owner stall this long between
	// acquisitions (the last pattern: context switch / long
	// computation).
	OwnerStall time.Duration
	// StallGap is the minimum vclock time between injected owner
	// stalls, so a stall pattern interleaves stalls with bursts of
	// normal acquisitions rather than stalling back to back. Zero
	// selects DefaultStallGap. Measured on internal/vclock (the same
	// clock SpinWait spins on), not the wall clock, so the cadence is
	// load-independent.
	StallGap time.Duration
}

// DefaultStallGap is used when LockPattern.StallGap is zero.
const DefaultStallGap = 2 * time.Millisecond

// StallGapTicks returns the stall-injection threshold in vclock ticks
// (nanoseconds), applying the default.
func (p LockPattern) StallGapTicks() int64 {
	if p.StallGap == 0 {
		return int64(DefaultStallGap)
	}
	return int64(p.StallGap)
}

// Patterns returns the four access patterns of Figure 8, scaled so the
// whole sweep stays tractable: owner-frequent/non-owner-rare, two
// patterns of increasing non-owner frequency, and the owner-stall
// pattern.
func Patterns() []LockPattern {
	return []LockPattern{
		{Name: "owner-freq/other-rare", OwnerMean: 200 * time.Nanosecond, OtherMean: time.Millisecond},
		{Name: "other-moderate", OwnerMean: 200 * time.Nanosecond, OtherMean: 20 * time.Microsecond},
		{Name: "other-equal", OwnerMean: 200 * time.Nanosecond, OtherMean: 200 * time.Nanosecond},
		{Name: "owner-stalls", OwnerMean: 200 * time.Nanosecond, OtherMean: 20 * time.Microsecond, OwnerStall: 25 * time.Millisecond},
	}
}
