package lock

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbtso/internal/core"
	"tbtso/internal/ostick"
	"tbtso/internal/vclock"
)

// allLocks returns one instance of every lock (cleanup via the returned
// func).
func allLocks(t *testing.T) ([]BiasedLock, func()) {
	t.Helper()
	board := ostick.NewBoard(4, time.Millisecond)
	locks := []BiasedLock{
		NewPthread(),
		NewBaselineBiased(),
		NewFFBL(core.NewFixedDelta(500*time.Microsecond), true),
		NewFFBL(core.NewFixedDelta(500*time.Microsecond), false),
		NewFFBL(core.NewTickBoard(board), true),
		NewSafePointBiased(),
	}
	return locks, board.Stop
}

// exerciseMutualExclusion runs one owner and `others` non-owners, each
// performing iters acquisitions, and fails on any overlap.
func exerciseMutualExclusion(t *testing.T, lk BiasedLock, others, iters int) {
	t.Helper()
	var inCS atomic.Int32
	var violations atomic.Int32
	var shared int // plain; the race detector doubles as a checker
	body := func() {
		if inCS.Add(1) != 1 {
			violations.Add(1)
		}
		shared++
		inCS.Add(-1)
	}
	var wg sync.WaitGroup
	var othersDone atomic.Int32
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			lk.OwnerLock()
			body()
			lk.OwnerUnlock()
		}
		// The safe-point lock needs a cooperative owner for as long as
		// non-owners keep arriving (that is its documented contract);
		// keep servicing safe points until they finish.
		if sp, ok := lk.(*SafePointBiased); ok {
			for othersDone.Load() < int32(others) {
				sp.SafePoint()
				runtime.Gosched()
			}
		}
	}()
	for o := 0; o < others; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer othersDone.Add(1)
			for i := 0; i < iters; i++ {
				lk.OtherLock()
				body()
				lk.OtherUnlock()
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%s: %d mutual-exclusion violations", lk.Name(), v)
	}
	if want := (others + 1) * iters; shared != want {
		t.Fatalf("%s: shared = %d, want %d (lost updates)", lk.Name(), shared, want)
	}
}

func TestMutualExclusionAllLocks(t *testing.T) {
	locks, cleanup := allLocks(t)
	defer cleanup()
	for _, lk := range locks {
		lk := lk
		t.Run(lk.Name(), func(t *testing.T) {
			exerciseMutualExclusion(t, lk, 2, 300)
		})
	}
}

func TestMutualExclusionManyNonOwners(t *testing.T) {
	lk := NewFFBL(core.NewFixedDelta(200*time.Microsecond), true)
	exerciseMutualExclusion(t, lk, 6, 200)
}

func TestOwnerOnlyFastPath(t *testing.T) {
	locks, cleanup := allLocks(t)
	defer cleanup()
	for _, lk := range locks {
		for i := 0; i < 10000; i++ {
			lk.OwnerLock()
			lk.OwnerUnlock()
		}
	}
}

func TestFFBLNonOwnerBoundedWaitWithStalledOwner(t *testing.T) {
	// §5: the FFBL non-owner waits at most ~Δ even when the owner is
	// stalled and never cooperates.
	const delta = time.Millisecond
	lk := NewFFBL(core.NewFixedDelta(delta), true)
	lk.OwnerLock()
	lk.OwnerUnlock()
	// Owner now stalls forever (never touches the lock again).
	start := time.Now()
	const acqs = 5
	for i := 0; i < acqs; i++ {
		lk.OtherLock()
		lk.OtherUnlock()
	}
	elapsed := time.Since(start)
	if elapsed > 40*acqs*delta {
		t.Fatalf("non-owner took %v for %d acquisitions with Δ=%v", elapsed, acqs, delta)
	}
}

func TestSafePointBlocksUntilOwnerSafePoint(t *testing.T) {
	// The contrast case: the safe-point lock's non-owner must wait for
	// the stalled owner.
	const stall = 150 * time.Millisecond
	lk := NewSafePointBiased()
	lk.OwnerLock()
	lk.OwnerUnlock()
	ownerWoke := make(chan struct{})
	go func() {
		time.Sleep(stall)
		lk.SafePoint() // owner finally reaches a safe point
		close(ownerWoke)
	}()
	start := time.Now()
	lk.OtherLock()
	elapsed := time.Since(start)
	lk.OtherUnlock()
	<-ownerWoke
	if elapsed < stall/2 {
		t.Fatalf("non-owner acquired in %v — did not wait for the owner's safe point", elapsed)
	}
}

func TestFFBLEchoCutsWait(t *testing.T) {
	// With a large Δ and an actively cycling owner, echoing lets the
	// non-owner in quickly; without echoing it waits the full Δ.
	const delta = 120 * time.Millisecond
	measure := func(echo bool) time.Duration {
		lk := NewFFBL(core.NewFixedDelta(delta), echo)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lk.OwnerLock()
				lk.OwnerUnlock()
			}
		}()
		time.Sleep(2 * time.Millisecond) // let the owner spin up
		start := time.Now()
		lk.OtherLock()
		elapsed := time.Since(start)
		lk.OtherUnlock()
		close(stop)
		wg.Wait()
		return elapsed
	}
	withEcho := measure(true)
	withoutEcho := measure(false)
	if withEcho > delta/2 {
		t.Fatalf("echoing did not cut the wait: %v (Δ=%v)", withEcho, delta)
	}
	if withoutEcho < delta/2 {
		t.Fatalf("no-echo variant waited only %v (Δ=%v)", withoutEcho, delta)
	}
}

func TestTTAS(t *testing.T) {
	var l TTAS
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	var ctr int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5000; k++ {
				l.Lock()
				ctr++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if ctr != 20000 {
		t.Fatalf("ctr = %d", ctr)
	}
}

func TestFlagPackingRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 99, 1 << 40} {
		for _, f := range []uint64{0, 1} {
			gv, gf := unpackFlag(packFlag(v, f))
			if gv != v || gf != f {
				t.Fatalf("pack(%d,%d) round-trips to (%d,%d)", v, f, gv, gf)
			}
		}
	}
	for _, mode := range []uint64{spBiased, spRevoking, spUnbiased} {
		for _, c := range []uint64{0, 1, 1000} {
			gm, gc := spUnpack(spPack(mode, c))
			if gm != mode || gc != c {
				t.Fatalf("spPack(%d,%d) round-trips to (%d,%d)", mode, c, gm, gc)
			}
		}
	}
}

func TestBoundsAreUsable(t *testing.T) {
	// Sanity on the core bounds the locks rely on.
	fd := core.NewFixedDelta(time.Millisecond)
	t0 := vclock.Now()
	if fd.Eligible(t0) {
		t.Fatal("store visible instantly under FixedDelta")
	}
	fd.Wait(t0)
	if !fd.Eligible(t0) {
		t.Fatal("not eligible after Wait")
	}
}

// TestPlantedPlainTSO exercises the planted plain-TSO negative control
// so the functions tbtso-verify certifies-to-fail stay compiled and
// behaviorally pinned. Go atomics are sequentially consistent, so run
// SEQUENTIALLY the broken protocol looks fine — each side sees the
// other's raised flag; the store-buffering overlap only exists under
// TSO, which is exactly what cmd/tbtso-verify's model-checking of the
// extracted pair (certs/ffbl-tso.json) demonstrates.
func TestPlantedPlainTSO(t *testing.T) {
	lk := NewFFBL(core.NewFixedDelta(time.Millisecond), false)
	if w := lk.plainTSOOwnerEnter(); w != 0 {
		t.Fatalf("owner on a fresh lock sees flag1 = %#x, want 0", w)
	}
	if _, f := unpackFlag(lk.flag0.v.Load()); f != 1 {
		t.Fatal("owner enter did not raise flag0")
	}
	if w := lk.plainTSORevokerProbe(); w != packFlag(0, 1) {
		t.Fatalf("revoker probing after the owner entered sees flag0 = %#x, want raised (%#x)", w, packFlag(0, 1))
	}
	if _, f := unpackFlag(lk.flag1.v.Load()); f != 1 {
		t.Fatal("revoker probe did not raise flag1")
	}
}

func TestFFBLVerifyAccounting(t *testing.T) {
	lk := NewFFBL(core.NewFixedDelta(100*time.Microsecond), false)
	for i := 0; i < 2; i++ {
		lk.OtherLock()
		lk.OtherUnlock()
	}
	if err := lk.VerifyAccounting(); err != nil {
		t.Fatalf("balanced books flagged: %v", err)
	}
	lk.echoes.Add(1) // an echo no transfer accounts for
	err := lk.VerifyAccounting()
	if err == nil {
		t.Fatal("unbalanced books not flagged")
	}
	for _, want := range []string{"echoes 1", "full waits 2", "bias transfers 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
