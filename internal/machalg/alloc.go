// Package machalg re-expresses the paper's algorithms as programs for
// the TBTSO abstract machine (internal/tso): hazard pointers with and
// without fences (Figure 2), Michael's nonblocking sorted linked list
// (Figure 1), and the fence-free biased lock (Figure 3). Running them on
// the machine turns the paper's correctness arguments into executable
// checks — including the demonstration that the fence-free variants are
// unsound on plain (unbounded) TSO and sound on TBTSO[Δ].
package machalg

import (
	"fmt"
	"sync"

	"tbtso/internal/tso"
)

// objState is the lifecycle of an allocator object.
type objState uint8

const (
	objFree objState = iota
	objLive
)

// Violation records a memory-safety violation detected by the
// allocator's machine sink.
type Violation struct {
	Kind   string // "load", "store", "commit", "rmw" (the event kind) or "free"
	Thread int
	Addr   tso.Addr
	Tick   uint64
}

func (v Violation) String() string {
	return fmt.Sprintf("use-after-free (%s) by T%d at addr %d, tick %d", v.Kind, v.Thread, v.Addr, v.Tick)
}

// Allocator is a fixed-pool object allocator for machine memory with
// use-after-free detection. It is a tso.Sink: any load from, store to,
// RMW on, or store-buffer commit into a freed object is recorded as a
// violation. This is the machine-level analogue of the poisoned arena
// the native code uses — it makes misreclamation observable.
//
// Alloc and Free are called from thread goroutines while Emit runs on
// the machine's scheduler goroutine, so all metadata is
// mutex-protected.
type Allocator struct {
	mu       sync.Mutex
	base     tso.Addr
	objWords int
	state    []objState
	free     []int // free object indices (LIFO)
	frees    int
	allocs   int
	viol     []Violation
}

// NewAllocator reserves capacity objects of objWords words each from
// the machine's memory and returns the allocator. It attaches itself as
// a sink of the machine so violations are detected automatically.
func NewAllocator(m *tso.Machine, capacity, objWords int) *Allocator {
	a := &Allocator{
		base:     m.AllocWords(capacity * objWords),
		objWords: objWords,
		state:    make([]objState, capacity),
		free:     make([]int, 0, capacity),
	}
	// LIFO freelist: push in reverse so Alloc hands out low indices
	// first, which keeps early traces readable.
	for i := capacity - 1; i >= 0; i-- {
		a.free = append(a.free, i)
	}
	m.AttachSink(a)
	return a
}

// Alloc returns the base address of a fresh object, or 0 if the pool is
// exhausted. The object's words are NOT zeroed; callers initialize all
// fields before publishing (as the paper's algorithms do).
func (a *Allocator) Alloc() tso.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) == 0 {
		return 0
	}
	idx := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.state[idx] = objLive
	a.allocs++
	return a.base + tso.Addr(idx*a.objWords)
}

// Free returns an object to the pool. Freeing a non-live object (double
// free, wild free) is recorded as a violation with kind "free".
func (a *Allocator) Free(obj tso.Addr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	idx, ok := a.index(obj)
	if !ok || a.state[idx] != objLive || a.base+tso.Addr(idx*a.objWords) != obj {
		a.viol = append(a.viol, Violation{Kind: "free", Addr: obj})
		return
	}
	a.state[idx] = objFree
	a.free = append(a.free, idx)
	a.frees++
}

// index maps an address to the object index containing it.
func (a *Allocator) index(addr tso.Addr) (int, bool) {
	if addr < a.base {
		return 0, false
	}
	idx := int(addr-a.base) / a.objWords
	if idx >= len(a.state) {
		return 0, false
	}
	return idx, true
}

// Emit implements tso.Sink. A commit into a freed object means a
// buffered store outlived the object — the precise hazard the Δ bound
// exists to prevent. Fences, and loads forwarded from the thread's own
// buffer, touch no memory and are not checked.
func (a *Allocator) Emit(e tso.Event) {
	if e.Kind == tso.EvFence || e.Kind == tso.EvLoad && e.FromBuf {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	idx, ok := a.index(e.Addr)
	if !ok {
		return // not allocator-managed memory
	}
	if a.state[idx] == objFree {
		a.viol = append(a.viol, Violation{Kind: e.Kind.String(), Thread: e.Thread, Addr: e.Addr, Tick: e.Tick})
	}
}

// Violations returns the recorded memory-safety violations.
func (a *Allocator) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, len(a.viol))
	copy(out, a.viol)
	return out
}

// Counts reports allocations and frees performed.
func (a *Allocator) Counts() (allocs, frees int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocs, a.frees
}

// LiveObjects reports the number of currently live objects.
func (a *Allocator) LiveObjects() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.state {
		if s == objLive {
			n++
		}
	}
	return n
}
