// Package ostick emulates the OS support of §6.2: an array A in which
// each core's timer-interrupt handler writes the current time, mapped
// read-only into every process. A core's entry being newer than t0
// implies that core's store buffer was flushed after t0 (user/kernel
// transitions drain the store buffer on x86).
//
// The emulation runs one background goroutine that stamps every slot on
// a jittered period, mirroring per-core timer interrupts that fire
// regardless of which user thread is running — so the board keeps
// advancing even when a worker is stalled, exactly as the paper's OS
// mechanism does. The paper itself emulated the mechanism in user space
// with POSIX timers (§7); this is the same idea in Go.
package ostick

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"tbtso/internal/fence"
	"tbtso/internal/vclock"
)

// slot is one padded entry of the time array A.
type slot struct {
	t atomic.Int64
	_ [fence.CacheLine - 8]byte
}

// Board is the time array A plus its interrupt emulation.
type Board struct {
	slots  []slot
	period time.Duration
	stop   chan struct{}
	done   chan struct{}
	ticks  atomic.Uint64
}

// NewBoard creates a board with one slot per emulated core and starts
// the timer-interrupt emulation with the given period (the paper uses
// 1–10 ms; its evaluation uses 4 ms).
func NewBoard(cores int, period time.Duration) *Board {
	b := &Board{
		slots:  make([]slot, cores),
		period: period,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	now := vclock.Now()
	for i := range b.slots {
		b.slots[i].t.Store(now)
	}
	go b.run()
	return b
}

func (b *Board) run() {
	defer close(b.done)
	rng := rand.New(rand.NewPCG(1, 0))
	// Stamp cores at staggered offsets within each period: real per-core
	// timers are not phase-aligned.
	for {
		select {
		case <-b.stop:
			return
		case <-time.After(b.period):
		}
		for i := range b.slots {
			// Jitter each core's stamp by up to 10% of the period.
			j := time.Duration(rng.Int64N(int64(b.period)/10 + 1))
			b.slots[i].t.Store(vclock.Now() - int64(j))
		}
		b.ticks.Add(1)
	}
}

// Stop halts the interrupt emulation.
func (b *Board) Stop() {
	close(b.stop)
	<-b.done
}

// Ticks reports how many interrupt rounds have fired (for tests).
func (b *Board) Ticks() uint64 { return b.ticks.Load() }

// MinTime returns the minimum entry of A: every store retired before
// this time is globally visible. This is the scan the adapted slow
// paths perform instead of waiting Δ.
func (b *Board) MinTime() int64 {
	min := b.slots[0].t.Load()
	for i := 1; i < len(b.slots); i++ {
		if t := b.slots[i].t.Load(); t < min {
			min = t
		}
	}
	return min
}

// AllPast reports whether every entry of A indicates a time > t0 —
// the §6.2 condition for "every store retired by t0 is visible".
func (b *Board) AllPast(t0 int64) bool {
	for i := range b.slots {
		if b.slots[i].t.Load() <= t0 {
			return false
		}
	}
	return true
}

// WaitAllPast blocks (sleeping in period-sized steps) until AllPast(t0)
// holds. Used only on slow paths.
func (b *Board) WaitAllPast(t0 int64) {
	for !b.AllPast(t0) {
		time.Sleep(b.period / 4)
	}
}
