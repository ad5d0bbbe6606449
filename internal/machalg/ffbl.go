package machalg

import "tbtso/internal/tso"

// SpinLock is a test-and-set lock in machine memory, used as the
// internal lock L of the biased locks (Figure 3's "standard lock").
type SpinLock struct {
	word tso.Addr
}

// NewSpinLock allocates the lock word.
func NewSpinLock(m *tso.Machine) *SpinLock {
	return &SpinLock{word: m.AllocWords(1)}
}

// TryLock attempts one acquisition.
func (s *SpinLock) TryLock(th *tso.Thread) bool {
	return th.CAS(s.word, 0, 1)
}

// Lock spins until acquired.
func (s *SpinLock) Lock(th *tso.Thread) {
	for !th.CAS(s.word, 0, 1) {
	}
}

// Unlock releases with a plain store, as x86 spinlocks do; the store
// becomes visible when it drains (within Δ on TBTSO).
func (s *SpinLock) Unlock(th *tso.Thread) {
	th.Store(s.word, 0)
}

// Flag packing for the FFBL (Figure 3e): 63-bit version v, flag bit f
// in bit 0.
func packFlag(v tso.Word, f tso.Word) tso.Word { return v<<1 | (f & 1) }

func unpackFlag(w tso.Word) (v, f tso.Word) { return w >> 1, w & 1 }

// The `ffbl-mach` verification pair is the machine-memory twin of
// lock's `ffbl` pair, with the reader replicated (copies=2) so the
// certificate also exercises mc's symmetry reduction: forbidden is any
// revoker entering while the owner's fast path validated flag1 down.
//
//tbtso:property pair=ffbl-mach forbid writer.flag1 == 0 && reader.flag0 == 0

// FFBL is the fence-free biased lock of Figure 3 (bottom row) expressed
// as machine programs. The owner's lock() issues no fence and no atomic
// operation on the fast path; the non-owner serializes behind the
// internal lock L, raises its versioned flag, fences, and waits either
// Δ ticks or for the owner's echo.
//
// With Echo disabled the non-owner always waits the full Δ, which is
// the ablation Figure 8 evaluates. On a machine with Delta == 0 (plain
// TSO) the Δ wait degenerates to nothing and the lock is unsound —
// tests use that to demonstrate why the bound matters.
type FFBL struct {
	flag0, flag1 tso.Addr
	l            *SpinLock
	delta        uint64
	echo         bool
	// §6.2 adapted variant: wait for every entry of the OS time array
	// A to pass the fence time instead of waiting Δ.
	board   tso.Addr
	threads int
}

// NewFFBL allocates the lock's shared variables. delta must be the
// machine's Δ bound (in ticks).
func NewFFBL(m *tso.Machine, delta uint64, echo bool) *FFBL {
	return &FFBL{
		flag0: m.AllocWords(1),
		flag1: m.AllocWords(1),
		l:     NewSpinLock(m),
		delta: delta,
		echo:  echo,
	}
}

// NewFFBLAdapted allocates the §6.2 adapted variant: the non-owner
// establishes visibility from the time array A at `board` (the base
// given to the machine's SetTickBoard, threads entries) instead of a Δ
// bound. Sound on a plain-TSO machine with TickPeriod set.
func NewFFBLAdapted(m *tso.Machine, board tso.Addr, threads int, echo bool) *FFBL {
	return &FFBL{
		flag0:   m.AllocWords(1),
		flag1:   m.AllocWords(1),
		l:       NewSpinLock(m),
		echo:    echo,
		board:   board,
		threads: threads,
	}
}

// boundPassed reports whether every store performed at or before t0 is
// now globally visible, per the lock's configured bound.
func (b *FFBL) boundPassed(th *tso.Thread, t0 uint64) bool {
	if b.board != 0 {
		for i := 0; i < b.threads; i++ {
			if uint64(th.Load(b.board+tso.Addr(i))) <= t0 {
				return false
			}
		}
		return true
	}
	return th.Clock() > t0+b.delta
}

// ownerPublishAndCheck is the owner fast path's protocol kernel: raise
// flag0 with a plain machine store, then read flag1 with no fence in
// between. The machine-memory twin of lock.FFBL's helper of the same
// name; tbtso-verify extracts it as the writer side of the `ffbl-mach`
// pair (see docs/VERIFY.md).
//
//tbtso:verify pair=ffbl-mach role=writer
//tbtso:fencefree
func (b *FFBL) ownerPublishAndCheck(th *tso.Thread) tso.Word {
	th.Store(b.flag0, packFlag(0, 1)) //tbtso:model val=1
	// no fence (the whole point)
	return th.Load(b.flag1)
}

// OwnerLock is Figure 3f: raise flag0 with no fence; if flag1 is down,
// enter immediately (the common case). Otherwise lower flag0 — echoing
// flag1's version so the non-owner can cut its Δ wait short — and spin
// on trylock(L).
//
//tbtso:fencefree
func (b *FFBL) OwnerLock(th *tso.Thread) {
	if _, f := unpackFlag(b.ownerPublishAndCheck(th)); f == 0 {
		return // fast path: critical section entered with flag0.f = 1
	}
	for {
		v1, _ := unpackFlag(th.Load(b.flag1))
		if b.echo {
			th.Store(b.flag0, packFlag(v1, 0)) // lower + echo (Lines 59–63)
		} else {
			th.Store(b.flag0, packFlag(0, 0)) // lower only
		}
		// The trylock's atomic operation drains the buffered echo, so
		// echoes reach memory much faster than Δ (§6.1.2).
		if b.l.TryLock(th) {
			return // critical section entered holding L, flag0.f = 0
		}
	}
}

// OwnerUnlock is Figure 3g: branch on flag0.f (read through the store
// buffer, so the owner sees its own latest write).
//
//tbtso:fencefree
func (b *FFBL) OwnerUnlock(th *tso.Thread) {
	if _, f := unpackFlag(th.Load(b.flag0)); f == 1 {
		th.Store(b.flag0, packFlag(0, 0))
	} else {
		th.Store(b.flag0, packFlag(0, 0))
		b.l.Unlock(th)
	}
}

// otherAnnounce raises a fresh version of flag1 and fences (Figure 3h,
// lines 2–4), making the revocation announcement globally visible
// before the wait begins. Reader step 1 of the `ffbl-mach` pair.
//
//tbtso:verify pair=ffbl-mach role=reader step=1 copies=2
//tbtso:requires-fence
func (b *FFBL) otherAnnounce(th *tso.Thread) tso.Word {
	v1, _ := unpackFlag(th.Load(b.flag1))
	myV := v1 + 1
	th.Store(b.flag1, packFlag(myV, 1)) //tbtso:model val=1
	th.Fence()
	return myV
}

// otherWaitDelta spins out the Δ bound from t0: any store the owner
// buffered before our announcement committed has drained by the time
// this returns. Reader step 2 of the `ffbl-mach` pair; the clock spin
// is extracted as a Wait op.
//
//tbtso:verify pair=ffbl-mach role=reader step=2
func (b *FFBL) otherWaitDelta(th *tso.Thread, t0 uint64) {
	for th.Clock() <= t0+b.delta { //tbtso:model wait
	}
}

// otherProbeOwner reads the owner's flag once and reports whether the
// owner is out of the critical section. Reader step 3 of the
// `ffbl-mach` pair.
//
//tbtso:verify pair=ffbl-mach role=reader step=3
func (b *FFBL) otherProbeOwner(th *tso.Thread) bool {
	_, f := unpackFlag(th.Load(b.flag0))
	return f == 0
}

// OtherLock is Figure 3h: acquire L, raise a new version of flag1,
// fence, then wait until Δ ticks pass or the owner echoes our version;
// finally wait for flag0.f = 0.
//
//tbtso:requires-fence
func (b *FFBL) OtherLock(th *tso.Thread) {
	b.l.Lock(th)
	myV := b.otherAnnounce(th)
	now := th.Clock()
	if !b.echo && b.board == 0 {
		// No echo to watch for and a plain Δ bound: the wait is the
		// extracted protocol step verbatim. (With echo disabled the
		// owner only ever writes version 0 to flag0 and myV ≥ 1, so the
		// echo check below could never fire anyway.)
		b.otherWaitDelta(th, now)
	} else {
		for {
			if b.boundPassed(th, now) {
				break
			}
			v0, _ := unpackFlag(th.Load(b.flag0))
			if v0 == myV {
				break // owner echoed: it is waiting on L, not in the CS
			}
		}
	}
	for {
		if b.otherProbeOwner(th) {
			return
		}
	}
}

// OtherUnlock is Figure 3h's unlock: bump flag1's version with the flag
// down, then release L.
//
//tbtso:fencefree
func (b *FFBL) OtherUnlock(th *tso.Thread) {
	v1, _ := unpackFlag(th.Load(b.flag1))
	th.Store(b.flag1, packFlag(v1+1, 0))
	b.l.Unlock(th)
}

// BaselineBiased is the basic (not fence-free) biased lock of Figure 3
// (top row): the owner fences after raising its flag.
type BaselineBiased struct {
	flag0, flag1 tso.Addr
	l            *SpinLock
}

// NewBaselineBiased allocates the lock's shared variables.
func NewBaselineBiased(m *tso.Machine) *BaselineBiased {
	return &BaselineBiased{flag0: m.AllocWords(1), flag1: m.AllocWords(1), l: NewSpinLock(m)}
}

// OwnerLock is Figure 3b.
//
//tbtso:requires-fence
func (b *BaselineBiased) OwnerLock(th *tso.Thread) {
	th.Store(b.flag0, 1)
	th.Fence()
	if th.Load(b.flag1) != 0 {
		th.Store(b.flag0, 0)
		b.l.Lock(th)
	}
}

// OwnerUnlock is Figure 3c.
func (b *BaselineBiased) OwnerUnlock(th *tso.Thread) {
	if th.Load(b.flag0) != 0 {
		th.Store(b.flag0, 0)
	} else {
		b.l.Unlock(th)
	}
}

// OtherLock is Figure 3d.
//
//tbtso:requires-fence
func (b *BaselineBiased) OtherLock(th *tso.Thread) {
	b.l.Lock(th)
	th.Store(b.flag1, 1)
	th.Fence()
	for th.Load(b.flag0) != 0 {
	}
}

// OtherUnlock is Figure 3d's unlock.
func (b *BaselineBiased) OtherUnlock(th *tso.Thread) {
	th.Store(b.flag1, 0)
	b.l.Unlock(th)
}
