package machalg

import (
	"fmt"
	"sync"

	"tbtso/internal/tso"
)

// HPMode selects the hazard-pointer protection discipline.
type HPMode int

const (
	// HPFenced is standard hazard pointers (Figure 2a): every fresh
	// hazard-pointer write is followed by a fence before validation.
	HPFenced HPMode = iota
	// HPFenceFree is the paper's FFHP (Figure 2b): no fence after the
	// hazard-pointer write; reclamation defers scanning an object until
	// Δ ticks after its retirement. Sound only on TBTSO[Δ].
	HPFenceFree
	// HPUnsafe omits both the fence and the Δ deferral. It is unsound
	// on TSO and exists to demonstrate the failure FFHP prevents.
	HPUnsafe
	// HPAdapted is the §6.2 x86 adaptation: no fence, and reclamation
	// establishes visibility from the OS time array A (the base given
	// to the machine's SetTickBoard) instead of a Δ bound — sound on
	// plain TSO as long as the periodic timer interrupts run.
	HPAdapted
	// HPNone performs no protection at all: traversals are bare reads
	// with no publication and no validation. Safe only for workloads
	// that never reclaim; it exists as the RCU-like zero-overhead
	// yardstick for the machine-level cost comparison.
	HPNone
)

func (m HPMode) String() string {
	switch m {
	case HPFenced:
		return "HP"
	case HPFenceFree:
		return "FFHP"
	case HPUnsafe:
		return "HP-nofence-unsafe"
	case HPAdapted:
		return "FFHP-adapted"
	case HPNone:
		return "no-protection"
	default:
		return fmt.Sprintf("HPMode(%d)", int(m))
	}
}

// retiredObj is an rlist entry: Figure 2b line 32, an
// <object pointer, time> pair.
type retiredObj struct {
	obj tso.Addr
	t   uint64
}

// HPStats aggregates reclamation activity across threads.
type HPStats struct {
	Retired      int
	Freed        int
	Reclaims     int // reclaim() invocations
	EmptyScans   int // reclaim() calls that freed nothing
	ReclaimLoops int // iterations of the retire-side while loop
}

// HPDomain is a hazard-pointer domain on the abstract machine: H = N×K
// hazard-pointer slots living in machine memory, plus per-thread
// retirement lists kept on the Go side (they are thread-private in the
// paper too). One domain serves one machine run.
type HPDomain struct {
	mode    HPMode
	alloc   *Allocator
	hpBase  tso.Addr
	threads int
	k       int
	r       int
	delta   uint64

	rlists [][]retiredObj // per-thread
	rcount []int

	// board is the §6.2 time array A (HPAdapted mode only).
	board tso.Addr

	// scanDescending inverts the per-thread slot scan order — breaking
	// the §4.1 requirement that reclaimers scan hazard pointers in
	// ascending index order so fence-free COPIES (low slot → high slot)
	// are never missed. Exists to demonstrate the rule matters.
	scanDescending bool

	mu    sync.Mutex
	stats HPStats
}

// SetScanDescending inverts Reclaim's slot scan order (see the field
// comment). For the §4.1 ablation only — it makes the domain unsound in
// the presence of hazard-pointer copies.
func (d *HPDomain) SetScanDescending(on bool) { d.scanDescending = on }

// SetBoard installs the OS time array's base address for HPAdapted
// mode; the machine's SetTickBoard must be given the same base.
func (d *HPDomain) SetBoard(board tso.Addr) { d.board = board }

// NewHPDomain creates a domain for `threads` threads with k hazard
// pointers each and retirement threshold r. delta is the machine's Δ
// bound in ticks (used by HPFenceFree). The paper's wait-free progress
// argument requires r > threads*k; the constructor enforces it.
func NewHPDomain(m *tso.Machine, alloc *Allocator, mode HPMode, threads, k, r int, delta uint64) *HPDomain {
	if h := threads * k; r <= h {
		panic(fmt.Sprintf("machalg: R=%d must exceed H=%d for wait-free reclamation", r, h))
	}
	d := &HPDomain{
		mode:    mode,
		alloc:   alloc,
		hpBase:  m.AllocWords(threads * k),
		threads: threads,
		k:       k,
		r:       r,
		delta:   delta,
		rlists:  make([][]retiredObj, threads),
		rcount:  make([]int, threads),
	}
	return d
}

// slot returns the machine address of thread t's hazard pointer i.
func (d *HPDomain) slot(t, i int) tso.Addr {
	return d.hpBase + tso.Addr(t*d.k+i)
}

// Protect points hazard pointer i of the calling thread at obj and, in
// HPFenced mode, issues the fence that orders the write before the
// caller's validation read. It reports whether the caller must validate
// its source pointer afterwards (false only in HPNone mode, which does
// not publish at all). The two disciplines are split into separately
// annotated helpers so tbtso-lint can verify each statically.
func (d *HPDomain) Protect(th *tso.Thread, i int, obj tso.Addr) bool {
	if d.mode == HPNone {
		return false
	}
	if d.mode == HPFenced {
		d.protectFenced(th, i, obj)
	} else {
		d.protectFenceFree(th, i, obj)
	}
	return true
}

// protectFenceFree is the FFHP publication (Figure 2b): a plain store,
// no fence — sound only under a visibility bound (TBTSO's Δ or the
// §6.2 time array).
//
//tbtso:fencefree
func (d *HPDomain) protectFenceFree(th *tso.Thread, i int, obj tso.Addr) {
	th.Store(d.slot(th.ID(), i), tso.Word(obj))
}

// protectFenced is the standard HP publication (Figure 2a): the fence
// orders the hazard-pointer write before the caller's validation read.
//
//tbtso:requires-fence
func (d *HPDomain) protectFenced(th *tso.Thread, i int, obj tso.Addr) {
	th.Store(d.slot(th.ID(), i), tso.Word(obj))
	th.Fence()
}

// Copy sets hazard pointer j to the value already protected by hazard
// pointer i (j > i). Per §4.1 no fence is needed in any mode, provided
// reclaimers scan slots in ascending index order.
//
//tbtso:fencefree
func (d *HPDomain) Copy(th *tso.Thread, j int, obj tso.Addr) {
	if d.mode == HPNone {
		return
	}
	th.Store(d.slot(th.ID(), j), tso.Word(obj))
}

// Clear resets hazard pointer i.
//
//tbtso:fencefree
func (d *HPDomain) Clear(th *tso.Thread, i int) {
	th.Store(d.slot(th.ID(), i), 0)
}

// Retire hands obj to the domain for deferred reclamation (Figure 2,
// retire()). The caller must have made the object's removal globally
// visible (the list's removal CAS does so). In HPFenceFree mode the
// retire loop runs reclaim() until rcount drops below R; the paper
// shows this loop is wait-free (at most Δ iterations) when R > H.
//
// No fence in any mode: retire-side ordering comes from the removal
// CAS, which is why Retire carries the fencefree contract.
//
//tbtso:fencefree
//tbtso:ignore escape rlists/rcount are per-thread (indexed by th.ID()), thread-private in the paper too (Figure 2 line 32); stats are mutex-protected Go-side bookkeeping outside the modeled memory
func (d *HPDomain) Retire(th *tso.Thread, obj tso.Addr) {
	id := th.ID()
	now := th.Clock()
	d.rlists[id] = append(d.rlists[id], retiredObj{obj: obj, t: now})
	d.rcount[id]++
	d.mu.Lock()
	d.stats.Retired++
	d.mu.Unlock()
	switch d.mode {
	case HPFenceFree, HPAdapted:
		for d.rcount[id] >= d.r {
			d.mu.Lock()
			d.stats.ReclaimLoops++
			d.mu.Unlock()
			d.Reclaim(th)
		}
	default:
		if d.rcount[id] >= d.r {
			d.Reclaim(th)
		}
	}
}

// Reclaim is Figure 2's reclaim(): scan every hazard pointer in the
// system (ascending index order), then free every sufficiently old
// retired object no scanned pointer protects.
//
//tbtso:fencefree
//tbtso:ignore escape rlists/rcount are per-thread (indexed by th.ID()), thread-private in the paper too; stats are mutex-protected Go-side bookkeeping outside the modeled memory
func (d *HPDomain) Reclaim(th *tso.Thread) {
	id := th.ID()
	var cutoff uint64
	hasCutoff := false
	switch d.mode {
	case HPFenceFree:
		now := th.Clock() // Figure 2b line 45
		if now < d.delta {
			cutoff, hasCutoff = 0, true // nothing can be old enough yet
		} else {
			cutoff, hasCutoff = now-d.delta, true
		}
	case HPAdapted:
		// §6.2: every store performed before min(A) is globally
		// visible; scanning A is the adapted slow path's extra work.
		minA := th.Load(d.board)
		for i := 1; i < d.threads; i++ {
			if v := th.Load(d.board + tso.Addr(i)); v < minA {
				minA = v
			}
		}
		cutoff, hasCutoff = uint64(minA), true
	}

	// plist: all non-null hazard pointers, ascending index order
	// (Figure 2 lines 43–49) — ascending is what makes copies safe; see
	// SetScanDescending. A map stands in for the paper's sorted array;
	// both give set-membership semantics.
	plist := make(map[tso.Addr]struct{}, d.threads*d.k)
	for t := 0; t < d.threads; t++ {
		for i := 0; i < d.k; i++ {
			idx := i
			if d.scanDescending {
				idx = d.k - 1 - i
			}
			if v := th.Load(d.slot(t, idx)); v != 0 {
				plist[tso.Addr(v)] = struct{}{}
			}
		}
	}

	// Free retired objects that are old enough and unprotected
	// (Figure 2b lines 50–56). rlist is scanned oldest-first; retire
	// appends, so the slice is already in retirement order.
	kept := d.rlists[id][:0]
	freed := 0
	for _, ro := range d.rlists[id] {
		eligible := !hasCutoff || ro.t < cutoff
		if !eligible {
			// Entries are time-ordered; everything later is younger.
			kept = append(kept, ro)
			continue
		}
		if _, protected := plist[ro.obj]; protected {
			kept = append(kept, ro)
			continue
		}
		d.alloc.Free(ro.obj)
		freed++
	}
	d.rlists[id] = kept
	d.rcount[id] = len(kept)

	d.mu.Lock()
	d.stats.Reclaims++
	d.stats.Freed += freed
	if freed == 0 {
		d.stats.EmptyScans++
	}
	d.mu.Unlock()
}

// Stats returns a snapshot of reclamation statistics.
func (d *HPDomain) Stats() HPStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Unreclaimed reports how many retired objects are still waiting in
// every thread's rlist. Only meaningful after the machine run ends.
func (d *HPDomain) Unreclaimed() int {
	n := 0
	for _, rl := range d.rlists {
		n += len(rl)
	}
	return n
}
