package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tbtso/internal/core"
	"tbtso/internal/lock"
	"tbtso/internal/obs"
	"tbtso/internal/report"
	"tbtso/internal/stats"
	"tbtso/internal/vclock"
	"tbtso/internal/workload"
)

// LockRates is one (pattern, lock) cell of Figure 8.
type LockRates struct {
	Lock      string
	Pattern   string
	OwnerRate float64 // acquisitions/s
	OtherRate float64
}

// runLockPattern measures owner and non-owner acquisition throughput
// for one lock under one access pattern (§7.2: two threads, random
// interarrival delays simulating application work). If reg is non-nil
// the lock's counters (bias revocations, transfers, echoes) are
// published into it after the run.
func runLockPattern(mk func() lock.BiasedLock, pat workload.LockPattern, dur time.Duration, reg *obs.Registry) LockRates {
	lk := mk()
	var ownerN, otherN obs.Counter
	var stop atomic.Bool
	var otherDone atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // owner
		defer wg.Done()
		ia := workload.NewInterarrival(pat.OwnerMean, 1)
		// Stall cadence runs on vclock ticks (the clock SpinWait spins
		// on) with the pattern's configurable threshold, not on
		// time.Now(): a wall-clock gap check re-measures scheduler
		// noise on a loaded CI box, skewing how many stalls a cell
		// injects from run to run.
		stallGap := pat.StallGapTicks()
		lastStall := vclock.Now()
		for !stop.Load() {
			workload.SpinWait(ia.Next())
			if pat.OwnerStall > 0 && vclock.Now()-lastStall > stallGap {
				// The owner gets "scheduled out": a long stall with no
				// cooperative points, between critical sections.
				time.Sleep(pat.OwnerStall)
				lastStall = vclock.Now()
			}
			lk.OwnerLock()
			lk.OwnerUnlock()
			ownerN.Inc()
		}
		// The safe-point lock needs the owner to keep reaching safe
		// points while non-owners drain.
		if sp, ok := lk.(*lock.SafePointBiased); ok {
			for !otherDone.Load() {
				sp.SafePoint()
				runtime.Gosched()
			}
		}
	}()

	wg.Add(1)
	go func() { // non-owner
		defer wg.Done()
		defer otherDone.Store(true)
		ia := workload.NewInterarrival(pat.OtherMean, 2)
		for !stop.Load() {
			workload.SpinWait(ia.Next())
			lk.OtherLock()
			lk.OtherUnlock()
			otherN.Inc()
		}
	}()

	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	if reg != nil {
		if lm, ok := lk.(schemeMetrics); ok {
			lm.Metrics(reg)
		}
	}
	secs := dur.Seconds()
	return LockRates{
		Lock:      lk.Name(),
		Pattern:   pat.Name,
		OwnerRate: float64(ownerN.Load()) / secs,
		OtherRate: float64(otherN.Load()) / secs,
	}
}

// RunLockCell executes one (lock, pattern) cell — the public wrapper
// used by the root benchmark suite.
func RunLockCell(mk func() lock.BiasedLock, pat workload.LockPattern, dur time.Duration) LockRates {
	return runLockPattern(mk, pat, dur, nil)
}

// Figure8Locks builds the lock lineup of Figure 8; the caller owns the
// returned cleanup.
func Figure8Locks(o Options) (locks []func() lock.BiasedLock, names []string, cleanup func()) {
	board := o.newBoard()
	hw := core.NewFixedDelta(o.DeltaHW)
	adapted := core.NewTickBoard(board)
	mk := func(f func() lock.BiasedLock) {
		locks = append(locks, f)
		names = append(names, f().Name())
	}
	mk(func() lock.BiasedLock { return lock.NewPthread() })
	mk(func() lock.BiasedLock { return lock.NewFFBL(hw, true) })
	mk(func() lock.BiasedLock { return lock.NewFFBL(hw, false) })
	mk(func() lock.BiasedLock { return lock.NewFFBL(adapted, true) })
	mk(func() lock.BiasedLock { return lock.NewFFBL(adapted, false) })
	mk(func() lock.BiasedLock { return lock.NewSafePointBiased() })
	mk(func() lock.BiasedLock { return lock.NewBaselineBiased() })
	return locks, names, board.Stop
}

// Figure8 regenerates the biased-lock throughput comparison across the
// four access patterns, normalized to the pthread baseline.
func Figure8(o Options) *report.Table {
	o = o.Defaults()
	dur := o.Duration
	locks, _, cleanup := Figure8Locks(o)
	defer cleanup()
	t := report.NewTable(
		fmt.Sprintf("Figure 8 — biased lock throughput normalized to pthread (%v/cell × %d runs)", dur, o.Runs),
		"pattern", "lock", "owner acq/s", "other acq/s", "owner ×pthread", "other ×pthread")
	for _, pat := range workload.Patterns() {
		var baseOwner, baseOther float64
		for _, mk := range locks {
			if o.interrupted() {
				break
			}
			owners := make([]float64, 0, o.Runs)
			others := make([]float64, 0, o.Runs)
			var name string
			for run := 0; run < o.Runs; run++ {
				res := runLockPattern(mk, pat, dur, o.Metrics)
				owners = append(owners, res.OwnerRate)
				others = append(others, res.OtherRate)
				name = res.Lock
			}
			ownerMed, otherMed := stats.Median(owners), stats.Median(others)
			if name == "pthread" {
				baseOwner, baseOther = ownerMed, otherMed
			}
			normO, normT := "-", "-"
			if baseOwner > 0 {
				normO = fmt.Sprintf("%.2f", ownerMed/baseOwner)
			}
			if baseOther > 0 {
				normT = fmt.Sprintf("%.2f", otherMed/baseOther)
			}
			t.AddRow(pat.Name, name, stats.FormatRate(ownerMed), stats.FormatRate(otherMed), normO, normT)
		}
	}
	t.AddNote("paper: biased owners beat pthread 5–10%% when non-owners are rare; no-echo FFBL collapses as non-owner frequency rises; under owner stalls FFBL beats the safe-point lock 7–50×")
	return o.markInterrupted(t)
}
