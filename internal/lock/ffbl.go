package lock

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"tbtso/internal/core"
	"tbtso/internal/fence"
	"tbtso/internal/obs"
	"tbtso/internal/vclock"
)

// The `ffbl` verification pair (docs/VERIFY.md): mutual exclusion of
// the owner fast path against a revoking non-owner is the flag
// principle — forbidden is the overlap where the owner validated flag1
// down (entered fast) while the revoker probed flag0 down (entered
// after its announce+fence+wait). tbtso-verify extracts the annotated
// helpers below into an mc program and certifies this across a Δ sweep.
//
//tbtso:property pair=ffbl forbid writer.flag1.v == 0 && reader.flag0.v == 0

// FFBL is the fence-free biased lock of Figure 3 (bottom): the owner's
// fast path is one store and one load with no fence and no atomic
// read-modify-write; the non-owner serializes on L, raises a versioned
// flag, fences, and waits out the visibility bound — or, with echoing
// enabled, stops waiting as soon as the owner echoes its version.
//
// The bound is pluggable (core.Bound): a FixedDelta of 0.5 ms gives the
// paper's TBTSO hardware variant, a TickBoard gives the §6.2 adapted
// [4 ms] variant, and the comparison between them is Figure 8's
// FFBL[0.5ms] vs FFBL[4ms].
type FFBL struct {
	flag0 paddedU64 // owner's <version,flag>
	flag1 paddedU64 // non-owners' <version,flag>
	l     TTAS
	fen1  fence.Line
	bound core.Bound
	echo  bool
	name  string

	// Observability counters, updated on the SLOW paths only — the
	// owner's fenceless fast path never touches them. revocations
	// counts owner acquisitions that fell back to the internal lock
	// (the bias was revoked by a concurrent non-owner); transfers
	// counts non-owner acquisitions (each is one bias transfer through
	// L); echoes counts non-owner waits cut short by the owner's echo;
	// fullWaits counts non-owner acquisitions that waited out the
	// whole visibility bound (every transfer is one or the other —
	// the invariant VerifyAccounting checks).
	revocations atomic.Uint64
	transfers   atomic.Uint64
	echoes      atomic.Uint64
	fullWaits   atomic.Uint64

	pub struct{ revocations, transfers, echoes, fullWaits obs.Publisher }
}

// NewFFBL creates a fence-free biased lock over the given bound.
func NewFFBL(bound core.Bound, echo bool) *FFBL {
	name := "FFBL[" + bound.Name() + "]"
	if !echo {
		name += "-noecho"
	}
	return &FFBL{bound: bound, echo: echo, name: name}
}

// Name implements BiasedLock.
func (b *FFBL) Name() string { return b.name }

// ownerPublishAndCheck is the FFBL protocol kernel of the owner's fast
// path (Figure 3f, first two lines): raise flag0 with a plain store,
// then — with no fence in between — read flag1 to validate that no
// non-owner is revoking. This is the store→load pair whose soundness
// rests entirely on the Δ bound; tbtso-verify extracts it as the writer
// side of the `ffbl` pair and certifies the overlap property under
// mc's TBTSO[Δ] sweep (see docs/VERIFY.md).
//
//tbtso:verify pair=ffbl role=writer
//tbtso:fencefree
func (b *FFBL) ownerPublishAndCheck() uint64 {
	b.flag0.v.Store(packFlag(0, 1)) //tbtso:model val=1
	// no fence
	return b.flag1.v.Load()
}

// OwnerLock implements BiasedLock (Figure 3f). The fast path — the
// whole point of the algorithm — is the first two lines: raise flag0,
// look at flag1, and enter. No fence separates them; on TBTSO the Δ
// bound (embodied in the non-owner's wait) makes that safe.
//
//tbtso:fencefree
func (b *FFBL) OwnerLock() {
	if _, f := unpackFlag(b.ownerPublishAndCheck()); f == 0 {
		return // fast path: in the critical section with flag0.f = 1
	}
	b.revocations.Add(1)
	for spins := 0; ; spins++ {
		v1, _ := unpackFlag(b.flag1.v.Load())
		if b.echo {
			b.flag0.v.Store(packFlag(v1, 0)) // lower + echo (lines 59–63)
		} else {
			b.flag0.v.Store(packFlag(0, 0))
		}
		if b.l.TryLock() {
			return // in the critical section holding L, flag0.f = 0
		}
		if spins%8 == 7 {
			runtime.Gosched()
		}
	}
}

// OwnerUnlock implements BiasedLock (Figure 3g).
//
//tbtso:fencefree
func (b *FFBL) OwnerUnlock() {
	if _, f := unpackFlag(b.flag0.v.Load()); f == 1 {
		b.flag0.v.Store(packFlag(0, 0))
	} else {
		b.flag0.v.Store(packFlag(0, 0))
		b.l.Unlock()
	}
}

// otherAnnounce is the revocation announcement (Figure 3h, lines 2–4):
// bump flag1 to a fresh raised version and fence, so the announcement
// is globally visible before the wait begins. Reader step 1 of the
// `ffbl` pair.
//
//tbtso:verify pair=ffbl role=reader step=1
//tbtso:requires-fence
func (b *FFBL) otherAnnounce() uint64 {
	v1, _ := unpackFlag(b.flag1.v.Load())
	myV := v1 + 1
	b.flag1.v.Store(packFlag(myV, 1)) //tbtso:model val=1
	b.fen1.Full()
	return myV
}

// otherWaitBound waits out the visibility bound for time t0: after it
// returns, every store the owner issued before our announcement became
// visible has itself drained — the §3 "wait Δ time units". Reader
// step 2 of the `ffbl` pair; the spin is extracted as a Wait op.
//
//tbtso:verify pair=ffbl role=reader step=2
func (b *FFBL) otherWaitBound(t0 int64) {
	for spins := 0; !b.bound.Eligible(t0); spins++ {
		if spins%16 == 15 {
			runtime.Gosched()
		}
	}
}

// otherProbeOwner reads the owner's flag once and reports whether the
// owner is out of the critical section (flag0.f == 0). Reader step 3
// of the `ffbl` pair: by the time this load runs, the Δ bound
// guarantees the owner's unfenced raise is visible if it happened
// before our announcement landed.
//
//tbtso:verify pair=ffbl role=reader step=3
func (b *FFBL) otherProbeOwner() bool {
	_, f := unpackFlag(b.flag0.v.Load())
	return f == 0
}

// OtherLock implements BiasedLock (Figure 3h).
//
//tbtso:requires-fence
func (b *FFBL) OtherLock() {
	b.l.Lock()
	b.transfers.Add(1)
	myV := b.otherAnnounce()
	t0 := vclock.Now()
	if b.echo {
		echoed := false
		for spins := 0; !b.bound.Eligible(t0); spins++ {
			if v0, _ := unpackFlag(b.flag0.v.Load()); v0 == myV {
				b.echoes.Add(1)
				echoed = true
				break // owner echoed: it is spinning on L, not in the CS
			}
			if spins%16 == 15 {
				runtime.Gosched()
			}
		}
		if !echoed {
			b.fullWaits.Add(1)
		}
	} else {
		b.otherWaitBound(t0)
		b.fullWaits.Add(1)
	}
	for spins := 0; ; spins++ {
		if b.otherProbeOwner() {
			return
		}
		if spins%16 == 15 {
			runtime.Gosched()
		}
	}
}

// OtherUnlock implements BiasedLock (Figure 3h's unlock).
//
//tbtso:fencefree
func (b *FFBL) OtherUnlock() {
	v1, _ := unpackFlag(b.flag1.v.Load())
	b.flag1.v.Store(packFlag(v1+1, 0))
	b.l.Unlock()
}

// VerifyAccounting checks the revocation-wait bookkeeping: every bias
// transfer either was echoed out of its wait or waited the bound in
// full, so echoes + fullWaits must equal transfers. Call it at
// quiescence (no acquisition in flight); mid-acquisition the counters
// are transiently inconsistent by design. Returns nil when the books
// balance.
func (b *FFBL) VerifyAccounting() error {
	t, e, f := b.transfers.Load(), b.echoes.Load(), b.fullWaits.Load()
	if e+f != t {
		return fmt.Errorf("%s: echoes %d + full waits %d != bias transfers %d", b.name, e, f, t)
	}
	return nil
}

// Metrics publishes the lock's counters into reg under
// "lock.<name>." names. Successive calls add only the growth since
// the previous call, so several lock instances accumulate into one
// registry.
func (b *FFBL) Metrics(reg *obs.Registry) {
	prefix := "lock." + b.name + "."
	b.pub.revocations.Publish(reg.Counter(prefix+"revocations"), b.revocations.Load())
	b.pub.transfers.Publish(reg.Counter(prefix+"bias_transfers"), b.transfers.Load())
	b.pub.echoes.Publish(reg.Counter(prefix+"echoes"), b.echoes.Load())
	b.pub.fullWaits.Publish(reg.Counter(prefix+"full_waits"), b.fullWaits.Load())
}
