package smr

import (
	"fmt"
	"sort"
	"sync/atomic"

	"tbtso/internal/arena"
	"tbtso/internal/core"
	"tbtso/internal/fence"
	"tbtso/internal/obs"
	"tbtso/internal/vclock"
)

// hpSlot is one hazard pointer, padded against false sharing.
type hpSlot struct {
	h atomic.Uint64 // arena.Handle
	_ [fence.CacheLine - 8]byte
}

// hpThread is the per-thread private state. Only the owning worker
// touches entries; rcount is atomic so Unreclaimed can observe it.
type hpThread struct {
	entries []retired
	rcount  atomic.Int64
	plist   []uint64 // scratch for reclaim: sorted handles
	scans   uint64   // reclaim() invocations
	loops   uint64   // iterations of the FFHP retire loop
	frees   uint64
	retires uint64 // Retire() calls
	_       [8]byte
}

// The `ffhp` verification pair (docs/VERIFY.md): the writer is a
// reader-side thread doing the fence-free protect (plain store of the
// hazard pointer) followed by the validation load of the link word; the
// reader is a reclaiming thread doing the removal CAS, the Δ wait, and
// the hazard-pointer scan. Forbidden is the §4 scan miss — the writer
// validated against the pre-removal link while the reclaimer's scan saw
// the hazard slot still empty.
//
//tbtso:property pair=ffhp forbid writer.link == 0 && reader.slots.h == 0

// HazardPointers implements standard HP (Figure 2a) and FFHP
// (Figure 2b) behind one type:
//
//   - fenced=true, bound=nil:   standard hazard pointers. Protect issues
//     a full fence; reclaim scans every retired node.
//   - fenced=false, bound!=nil: fence-free hazard pointers. Protect is a
//     plain store; reclaim only scans nodes retired before the bound's
//     cutoff, and the retire-side loop re-runs reclaim until below R.
//
// plist is a sorted array searched by binary search — the paper's
// practical choice (§4.1); NewHP/NewFFHP pick the discipline.
type HazardPointers struct {
	name        string
	fenced      bool
	bound       core.Bound
	k, r        int
	threads     int
	slots       []hpSlot // threads*k, slot(t,i) = t*k+i
	fences      *fence.Lines
	perTh       []hpThread
	arena       *arena.Arena
	usemap      bool // ablation: plist as a hash set instead of a sorted array
	ordered     bool // exploit rlist time order to cut scans short (default)
	constrained bool // §4.2.1 constrained case: skip scans until H+1 oldest are eligible

	pub struct{ retires, scans, loops, frees obs.Publisher }
}

// SetPlistMap switches reclaim's plist lookup structure from the
// paper's sorted array + binary search to a hash set — the §4.1
// complexity ablation (BenchmarkAblation_Plist).
func (hp *HazardPointers) SetPlistMap(on bool) { hp.usemap = on }

// SetOrderedScan controls whether reclaim exploits the rlist's
// retirement-time order to stop scanning at the first too-young entry
// (§4.2: "scanning rlist from oldest to newest retired objects is
// trivial and costs O(1) per object"). On by default; turning it off is
// the BenchmarkAblation_RlistScan configuration.
func (hp *HazardPointers) SetOrderedScan(on bool) { hp.ordered = on }

// SetConstrainedMode enables the §4.2.1 constrained-case optimization
// for Δ > R > H: reclaim() does no work at all — not even the
// hazard-pointer snapshot — until the bound has passed for the oldest
// H+1 retired objects, giving the O(Δ) worst case the paper derives
// instead of busy rescans that cannot free anything.
func (hp *HazardPointers) SetConstrainedMode(on bool) { hp.constrained = on }

// NewHP returns standard hazard pointers [28].
func NewHP(cfg Config) *HazardPointers {
	cfg.validate()
	return newHP(cfg, string(KindHP), true, nil)
}

// NewFFHP returns the paper's fence-free hazard pointers with the
// TBTSO[Δ] bound.
func NewFFHP(cfg Config) *HazardPointers {
	cfg.validate()
	return newHP(cfg, string(KindFFHP), false, core.NewFixedDelta(cfg.Delta))
}

// NewFFHPBound returns FFHP over an arbitrary visibility bound — used
// for the §6.2 adapted variant (time-array board) and for ablations.
func NewFFHPBound(cfg Config, b core.Bound) *HazardPointers {
	cfg.validate()
	name := string(KindFFHP) + "[" + b.Name() + "]"
	if _, ok := b.(*core.TickBoard); ok {
		name = string(KindFFHPTicks)
	}
	return newHP(cfg, name, false, b)
}

func newHP(cfg Config, name string, fenced bool, bound core.Bound) *HazardPointers {
	hp := &HazardPointers{
		name:    name,
		fenced:  fenced,
		bound:   bound,
		k:       cfg.K,
		r:       cfg.R,
		threads: cfg.Threads,
		slots:   make([]hpSlot, cfg.Threads*cfg.K),
		fences:  fence.NewLines(cfg.Threads),
		perTh:   make([]hpThread, cfg.Threads),
		ordered: true,
	}
	hp.arena = cfg.Arena
	return hp
}

// Name implements Scheme.
func (hp *HazardPointers) Name() string { return hp.name }

// OpBegin implements Scheme (hazard pointers need no brackets).
func (hp *HazardPointers) OpBegin(int, uint64) {}

// OpEnd implements Scheme.
func (hp *HazardPointers) OpEnd(int) {}

// Protect implements Scheme: publish the hazard pointer and, for
// standard HP, fence so the publication precedes the caller's
// validation read. Both variants require validation; FFHP merely skips
// the fence (§4.2: "we omit the fence from the hazard pointer
// validation code"). The two disciplines live in separately annotated
// helpers so tbtso-lint can enforce each statically.
func (hp *HazardPointers) Protect(tid, slot int, h arena.Handle) bool {
	if hp.fenced {
		hp.protectFenced(tid, slot, h)
	} else {
		hp.protectFenceFree(tid, slot, h)
	}
	return true
}

// protectFenceFree is FFHP's publication (Figure 2b): a plain store
// with no serializing instruction — the fast-path saving the whole
// paper is about. Sound only under a visibility bound. Writer step 1
// of the `ffhp` verification pair (docs/VERIFY.md); Validate is
// step 2, and together they are the protect→validate store/load pair
// whose soundness tbtso-verify certifies under mc's TBTSO[Δ] sweep.
//
//tbtso:verify pair=ffhp role=writer step=1
//tbtso:fencefree
func (hp *HazardPointers) protectFenceFree(tid, slot int, h arena.Handle) {
	hp.slots[tid*hp.k+slot].h.Store(uint64(h)) //tbtso:model val=1
}

// protectFenced is standard HP's publication (Figure 2a): the fence
// orders the hazard-pointer store before the validation read.
//
//tbtso:requires-fence
func (hp *HazardPointers) protectFenced(tid, slot int, h arena.Handle) {
	hp.slots[tid*hp.k+slot].h.Store(uint64(h))
	hp.fences.Full(tid)
}

// Copy implements Scheme: copying from a lower slot needs no fence in
// either variant, because reclaimers scan slots in ascending order and
// TSO preserves store order (§4.1).
//
//tbtso:fencefree
func (hp *HazardPointers) Copy(tid, slot int, h arena.Handle) {
	hp.slots[tid*hp.k+slot].h.Store(uint64(h))
}

// Visit implements Scheme.
func (hp *HazardPointers) Visit(int) bool { return false }

// UpdateHint implements Scheme.
func (hp *HazardPointers) UpdateHint(int, uint64) {}

// Retire implements Scheme (Figure 2 retire()). Fence-free in both
// variants — and transitively so through reclaim() and arena.Free,
// which tbtso-lint verifies: the §4.2 progress argument (the retire
// loop terminates within Δ) assumes the loop body issues no fence.
//
//tbtso:fencefree
func (hp *HazardPointers) Retire(tid int, h arena.Handle) {
	t := &hp.perTh[tid]
	t.retires++
	t.entries = append(t.entries, retired{h: h, t: vclock.Now()})
	t.rcount.Add(1)
	if hp.bound == nil {
		if int(t.rcount.Load()) >= hp.r {
			hp.reclaim(tid)
		}
		return
	}
	// FFHP: loop until below R; bounded by Δ (§4.2, progress guarantee).
	for int(t.rcount.Load()) >= hp.r {
		t.loops++
		hp.reclaim(tid)
	}
}

// ReclaimNow runs one explicit reclaim() pass for tid (Figure 2's
// reclaim()); normally Retire invokes it, but benchmarks and tests can
// drive it directly.
func (hp *HazardPointers) ReclaimNow(tid int) { hp.reclaim(tid) }

// reclaim is Figure 2's reclaim(): snapshot all hazard pointers
// (ascending slot order), then free eligible unprotected entries.
func (hp *HazardPointers) reclaim(tid int) {
	t := &hp.perTh[tid]
	cutoff := int64(1<<63 - 1)
	if hp.bound != nil {
		cutoff = hp.bound.Cutoff() // Figure 2b line 45
	}
	if hp.constrained && hp.bound != nil {
		// §4.2.1: with Δ > R > H a scan is pointless until at least
		// H+1 of the oldest retirees are past the bound — otherwise
		// fewer than H+1 candidates exist and all may be protected.
		h := hp.threads * hp.k
		if len(t.entries) <= h || t.entries[h].t >= cutoff {
			return
		}
	}
	t.scans++
	t.plist = t.plist[:0]
	for i := range hp.slots {
		if v := hp.scanSlot(i); v != 0 {
			t.plist = append(t.plist, v)
		}
	}
	var pset map[uint64]struct{}
	if hp.usemap {
		pset = make(map[uint64]struct{}, len(t.plist))
		for _, v := range t.plist {
			pset[v] = struct{}{}
		}
	} else {
		sort.Slice(t.plist, func(a, b int) bool { return t.plist[a] < t.plist[b] })
	}

	kept := t.entries[:0]
	for i, e := range t.entries {
		if e.t >= cutoff {
			if hp.ordered {
				// rlist is in retirement order: everything after this
				// entry is younger, so keep the tail wholesale (§4.2).
				kept = append(kept, t.entries[i:]...)
				break
			}
			kept = append(kept, e)
			continue
		}
		prot := false
		if hp.usemap {
			_, prot = pset[uint64(e.h)]
		} else {
			prot = hp.protected(t.plist, e.h)
		}
		if prot {
			kept = append(kept, e)
			continue
		}
		hp.arena.Free(tid, e.h)
		t.frees++
	}
	// Zero the tail so freed handles do not linger.
	for i := len(kept); i < len(t.entries); i++ {
		t.entries[i] = retired{}
	}
	t.entries = kept
	t.rcount.Store(int64(len(kept)))
}

// scanSlot reads one hazard slot during reclaim's snapshot (Figure 2
// line 46, ascending slot order). Reader step 3 of the `ffhp` pair: by
// the time the scan runs, waitRetired has burned out Δ, so a protect
// store issued before the removal became visible has drained.
//
//tbtso:verify pair=ffhp role=reader step=3
func (hp *HazardPointers) scanSlot(i int) uint64 {
	return hp.slots[i].h.Load()
}

// waitRetired waits out the visibility bound for a node retired at
// time t (Figure 2b line 45's cutoff, in blocking form): after it
// returns, every protect store issued before the node's removal became
// visible is itself visible. Reader step 2 of the `ffhp` pair; the
// bound wait is extracted as a Wait op.
//
//tbtso:verify pair=ffhp role=reader step=2
func (hp *HazardPointers) waitRetired(t int64) {
	hp.bound.Wait(t)
}

func (hp *HazardPointers) protected(plist []uint64, h arena.Handle) bool {
	v := uint64(h)
	i := sort.Search(len(plist), func(i int) bool { return plist[i] >= v })
	return i < len(plist) && plist[i] == v
}

// Unreclaimed implements Scheme.
func (hp *HazardPointers) Unreclaimed() int {
	n := int64(0)
	for i := range hp.perTh {
		n += hp.perTh[i].rcount.Load()
	}
	return int(n)
}

// Flush implements Scheme: wait out the bound for the youngest retired
// node, then reclaim until nothing unprotected remains.
func (hp *HazardPointers) Flush(tid int) {
	t := &hp.perTh[tid]
	if len(t.entries) == 0 {
		return
	}
	if hp.bound != nil {
		hp.waitRetired(t.entries[len(t.entries)-1].t)
	}
	before := -1
	for len(t.entries) > 0 && len(t.entries) != before {
		before = len(t.entries)
		hp.reclaim(tid)
	}
}

// Close implements Scheme.
func (hp *HazardPointers) Close() {}

// Scans reports reclaim() invocations and frees for thread tid
// (benchmark introspection).
func (hp *HazardPointers) Scans(tid int) (scans, loops, frees uint64) {
	t := &hp.perTh[tid]
	return t.scans, t.loops, t.frees
}

// Metrics publishes the scheme's aggregate counters into reg under
// "smr.<scheme>." names: retires, reclaim scans, retire-loop
// iterations, frees, and the still-unreclaimed node count. Call it
// after (or periodically during) a run; the per-thread sources are the
// same owner-private counters the hot paths already maintain, so
// observation costs the hot paths nothing. Successive calls add only
// the growth since the previous call, so several scheme instances can
// accumulate into one registry.
func (hp *HazardPointers) Metrics(reg *obs.Registry) {
	var scans, loops, frees, retires uint64
	for i := range hp.perTh {
		t := &hp.perTh[i]
		scans += t.scans
		loops += t.loops
		frees += t.frees
		retires += t.retires
	}
	prefix := "smr." + hp.name + "."
	hp.pub.retires.Publish(reg.Counter(prefix+"retires"), retires)
	hp.pub.scans.Publish(reg.Counter(prefix+"scans"), scans)
	hp.pub.loops.Publish(reg.Counter(prefix+"retire_loops"), loops)
	hp.pub.frees.Publish(reg.Counter(prefix+"frees"), frees)
	reg.Gauge(prefix + "unreclaimed").Set(int64(hp.Unreclaimed()))
}

// VerifyAccounting cross-checks the reclamation accounting invariant
// on the scheme's own per-thread counters: every retired node is
// either freed or still pending, frees + unreclaimed == retires. Call
// it at quiescence (workers joined); mid-run the counters are
// transiently inconsistent by design. Returns nil when the books
// balance.
func (hp *HazardPointers) VerifyAccounting() error {
	var frees, retires uint64
	for i := range hp.perTh {
		frees += hp.perTh[i].frees
		retires += hp.perTh[i].retires
	}
	if u := hp.Unreclaimed(); u < 0 || frees+uint64(u) != retires {
		return fmt.Errorf("%s: frees %d + unreclaimed %d != retires %d", hp.name, frees, u, retires)
	}
	return nil
}
