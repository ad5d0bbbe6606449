package machalg

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"tbtso/internal/tso"
)

// §6.2 on the abstract machine: plain TSO (Δ = 0) plus periodic timer
// interrupts that drain store buffers and stamp the time array A. The
// adapted algorithms establish visibility from A — and are sound
// without any hardware Δ bound.

const adaptedPeriod = 60

// newAdaptedMachine wires a plain-TSO machine with OS ticks and a time
// array for `threads` threads.
func newAdaptedMachine(seed int64, threads int, maxTicks uint64) (*tso.Machine, tso.Addr) {
	m := tso.New(tso.Config{
		Delta:      0, // plain TSO: no hardware bound at all
		Policy:     tso.DrainAdversarial,
		TickPeriod: adaptedPeriod,
		Seed:       seed,
		MaxTicks:   maxTicks,
	})
	board := m.AllocWords(threads)
	m.SetTickBoard(board)
	return m, board
}

func TestAdaptedFFHPDirectedRaceSafe(t *testing.T) {
	// The directed reclamation race of TestReclaimRaceMatrix, §6.2
	// style: the reader's hazard-pointer store is drained by its timer
	// interrupt, and the reclaimer defers to min(A) — no UAF, and the
	// node IS freed once the reader moves on.
	m, board := newAdaptedMachine(1, 2, 1_000_000)
	alloc := NewAllocator(m, 4, nodeWords)
	hp := NewHPDomain(m, alloc, HPAdapted, 2, 3, 7, 0)
	hp.SetBoard(board)
	l := NewList(m, hp, alloc)

	node := alloc.Alloc()
	m.SetWord(node+offKey, 1)
	m.SetWord(node+offNext, pack(0, 0))
	m.SetWord(l.head, pack(node, 0))

	var validated, released atomic.Bool
	m.Spawn("reader", func(th *tso.Thread) {
		curW := th.Load(l.head)
		cur, _ := unpack(curW)
		hp.Protect(th, 1, cur) // no fence (HPAdapted)
		if th.Load(l.head) != pack(cur, 0) {
			validated.Store(true)
			return
		}
		validated.Store(true)
		for !released.Load() {
			th.Yield()
		}
		_ = th.Load(cur + offKey)
		hp.Clear(th, 1)
	})
	freedWhileProtected := false
	m.Spawn("reclaimer", func(th *tso.Thread) {
		for !validated.Load() {
			th.Yield()
		}
		if !th.CAS(l.head, pack(node, 0), pack(0, 0)) {
			released.Store(true)
			return
		}
		hp.Retire(th, node)
		deadline := th.Clock() + 6*adaptedPeriod
		for th.Clock() < deadline {
			hp.Reclaim(th)
			if alloc.LiveObjects() == 0 {
				freedWhileProtected = true
				break
			}
		}
		released.Store(true)
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if v := alloc.Violations(); len(v) != 0 {
		t.Fatalf("adapted FFHP produced violations on plain TSO + ticks: %v", v[0])
	}
	if freedWhileProtected {
		t.Fatal("node freed while the reader's (drained) hazard pointer protected it")
	}
}

func TestAdaptedFFHPWithoutTicksMakesNoProgress(t *testing.T) {
	// Without the OS support, A never advances, so the adapted reclaim
	// can never establish visibility: safe, but nothing is ever freed —
	// the adaptation genuinely depends on the ticks.
	m := tso.New(tso.Config{Policy: tso.DrainAdversarial, Seed: 2, MaxTicks: 200_000})
	board := m.AllocWords(1)
	alloc := NewAllocator(m, 8, nodeWords)
	hp := NewHPDomain(m, alloc, HPAdapted, 1, 3, 4, 0)
	hp.SetBoard(board)
	m.Spawn("t", func(th *tso.Thread) {
		for i := 0; i < 3; i++ {
			obj := alloc.Alloc()
			th.Fence()
			hp.rlists[0] = append(hp.rlists[0], retiredObj{obj: obj, t: th.Clock()})
			hp.rcount[0]++
		}
		hp.Reclaim(th)
		hp.Reclaim(th)
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if _, f := alloc.Counts(); f != 0 {
		t.Fatalf("freed %d objects with A frozen at 0", f)
	}
	if len(alloc.Violations()) != 0 {
		t.Fatal("violations without any frees?")
	}
}

func TestAdaptedFFHPConcurrentChurnSafe(t *testing.T) {
	// Random list churn, plain TSO + ticks, adapted reclamation: no
	// violations, reclamation progresses. A thread reclaims only once
	// it has retired h+4 objects, which churn alone may not reach, so
	// each thread ends by waiting out three tick periods (every store
	// retired before then is visible) and reclaiming once.
	for seed := int64(0); seed < 16; seed++ {
		const threads = 3
		m, board := newAdaptedMachine(seed, threads, 8_000_000)
		alloc := NewAllocator(m, 256, nodeWords)
		h := threads * 3
		hp := NewHPDomain(m, alloc, HPAdapted, threads, 3, h+4, 0)
		hp.SetBoard(board)
		l := NewList(m, hp, alloc)
		for i := 0; i < threads; i++ {
			s := seed*100 + int64(i)
			m.Spawn("w", func(th *tso.Thread) {
				rng := rand.New(rand.NewSource(s))
				for k := 0; k < 100; k++ {
					key := tso.Word(rng.Intn(12))
					switch rng.Intn(4) {
					case 0:
						l.Insert(th, key)
					case 1:
						l.Delete(th, key)
					default:
						l.Lookup(th, key)
					}
				}
				for i := 0; i < 3; i++ {
					hp.Clear(th, i)
				}
				th.WaitUntil(th.Clock() + 3*adaptedPeriod)
				hp.Reclaim(th)
			})
		}
		res := m.Run()
		if res.Err != nil {
			t.Fatalf("seed=%d: %v", seed, res.Err)
		}
		if v := alloc.Violations(); len(v) != 0 {
			t.Fatalf("seed=%d: violations %v", seed, v[0])
		}
		st := hp.Stats()
		if st.Retired > 0 && st.Freed == 0 {
			t.Fatalf("seed=%d: adapted reclamation made no progress (%d retired)", seed, st.Retired)
		}
	}
}

func TestAdaptedFFBLMutualExclusion(t *testing.T) {
	// The §6.2 adapted biased lock: sound on plain TSO as long as the
	// timer interrupts run.
	for _, echo := range []bool{true, false} {
		for seed := int64(0); seed < 4; seed++ {
			m, board := newAdaptedMachine(seed, 2, 6_000_000)
			lk := NewFFBLAdapted(m, board, 2, echo)
			rec := &csRecorder{}
			body := func(th *tso.Thread) {
				enter := th.Clock()
				for i := 0; i < 10; i++ {
					th.Yield()
				}
				rec.add(enter, th.Clock())
			}
			m.Spawn("owner", func(th *tso.Thread) {
				for i := 0; i < 25; i++ {
					lk.OwnerLock(th)
					body(th)
					lk.OwnerUnlock(th)
					th.Yield()
				}
				th.Fence()
			})
			m.Spawn("other", func(th *tso.Thread) {
				for i := 0; i < 8; i++ {
					lk.OtherLock(th)
					body(th)
					lk.OtherUnlock(th)
					th.Yield()
				}
				th.Fence()
			})
			res := m.Run()
			if res.Err != nil {
				t.Fatalf("echo=%v seed=%d: %v", echo, seed, res.Err)
			}
			if a, b, bad := rec.overlap(); bad {
				t.Fatalf("echo=%v seed=%d: overlapping critical sections %v and %v", echo, seed, a, b)
			}
		}
	}
}
