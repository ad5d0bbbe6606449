// Package rwlock implements a passive reader-writer lock on the TBTSO
// principle — the design space of Liu, Zhang and Chen's passive
// reader-writer locks [23], which the paper's §8 discusses: their
// read-side fast path is fence-free and the writer uses
// inter-processor interrupts to flush remote store buffers. On TBTSO
// the writer instead waits out the visibility bound, so no OS
// machinery is needed and the writer's wait is bounded.
//
// Read side (fast path): raise the per-reader flag — no fence, no
// atomic read-modify-write — and check for a writer. Write side (slow
// path): publish intent, fence, wait out the bound (now every earlier
// reader flag is visible), then wait for raised flags to drop.
//
// The machine-checked version (internal/machalg/rwlock.go) demonstrates
// that the Δ wait is exactly what makes this sound: on a plain-TSO
// machine the writer enters over a live reader whose flag is still
// buffered.
package rwlock

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tbtso/internal/core"
	"tbtso/internal/fence"
	"tbtso/internal/vclock"
)

// PRWLock is a passive reader-writer lock for a fixed set of reader
// slots. Reader methods take the caller's slot (0..n-1); each slot may
// be used by one goroutine at a time. Any goroutine may write-lock.
type PRWLock struct {
	readers []readerSlot
	writer  atomic.Uint32
	_       [fence.CacheLine - 4]byte
	wmu     sync.Mutex
	wfence  fence.Line
	bound   core.Bound
}

type readerSlot struct {
	flag atomic.Uint32
	_    [fence.CacheLine - 4]byte
}

// New creates a lock with n reader slots over the given bound.
func New(n int, bound core.Bound) *PRWLock {
	return &PRWLock{readers: make([]readerSlot, n), bound: bound}
}

// RLock enters the read side on slot r: one store and one load on the
// fast path, no fence, no read-modify-write.
//
//tbtso:fencefree
func (l *PRWLock) RLock(r int) {
	s := &l.readers[r]
	for {
		s.flag.Store(1)
		// no fence — the writer's bound wait covers this store
		if l.writer.Load() == 0 {
			return
		}
		// Writer active or pending: stand down and wait.
		s.flag.Store(0)
		for spins := 0; l.writer.Load() != 0; spins++ {
			if spins%32 == 31 {
				runtime.Gosched()
			}
		}
	}
}

// RUnlock leaves the read side on slot r.
//
//tbtso:fencefree
func (l *PRWLock) RUnlock(r int) {
	l.readers[r].flag.Store(0)
}

// Lock acquires the write side.
//
//tbtso:requires-fence
func (l *PRWLock) Lock() {
	l.wmu.Lock()
	l.writer.Store(1)
	l.wfence.Full()
	// Every reader flag raised before our publication became visible is
	// itself visible once the bound passes — the IPI replacement.
	l.bound.Wait(vclock.Now())
	for i := range l.readers {
		for spins := 0; l.readers[i].flag.Load() != 0; spins++ {
			if spins%32 == 31 {
				runtime.Gosched()
			}
		}
	}
}

// Unlock releases the write side.
func (l *PRWLock) Unlock() {
	l.writer.Store(0)
	l.wmu.Unlock()
}
