package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tbtso/internal/core"
	"tbtso/internal/obs"
	"tbtso/internal/report"
	"tbtso/internal/rwlock"
	"tbtso/internal/stats"
	"tbtso/internal/workload"
)

// rwLockIface abstracts the two read-side APIs.
type rwLockIface interface {
	rlock(slot int)
	runlock(slot int)
	wlock()
	wunlock()
	name() string
}

type prwAdapter struct {
	l *rwlock.PRWLock
	n string
}

func (a prwAdapter) rlock(s int)   { a.l.RLock(s) }
func (a prwAdapter) runlock(s int) { a.l.RUnlock(s) }
func (a prwAdapter) wlock()        { a.l.Lock() }
func (a prwAdapter) wunlock()      { a.l.Unlock() }
func (a prwAdapter) name() string  { return a.n }

type stdAdapter struct {
	l sync.RWMutex
}

func (a *stdAdapter) rlock(int)    { a.l.RLock() }
func (a *stdAdapter) runlock(int)  { a.l.RUnlock() }
func (a *stdAdapter) wlock()       { a.l.Lock() }
func (a *stdAdapter) wunlock()     { a.l.Unlock() }
func (a *stdAdapter) name() string { return "sync.RWMutex" }

// RWLockRates is one cell of the passive-RW-lock experiment.
type RWLockRates struct {
	Lock       string
	ReaderRate float64
	WriterRate float64
}

// runRWCell measures read and write throughput with `readers` reader
// goroutines and one writer arriving with mean interarrival writerMean.
func runRWCell(lk rwLockIface, readers int, writerMean, dur time.Duration) RWLockRates {
	var rOps, wOps obs.Counter
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				for i := 0; i < 32; i++ {
					lk.rlock(r)
					lk.runlock(r)
				}
				rOps.Add(32)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ia := workload.NewInterarrival(writerMean, 3)
		for !stop.Load() {
			workload.SpinWait(ia.Next())
			lk.wlock()
			lk.wunlock()
			wOps.Inc()
		}
	}()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	secs := dur.Seconds()
	return RWLockRates{Lock: lk.name(), ReaderRate: float64(rOps.Load()) / secs, WriterRate: float64(wOps.Load()) / secs}
}

// RWLock runs the passive-RW-lock extension experiment: read-side
// throughput of the TBTSO passive lock (fence-free read path, Δ-waiting
// writer) against sync.RWMutex, under rare and moderate writer rates.
func RWLock(o Options) *report.Table {
	o = o.Defaults()
	readers := o.Threads
	board := o.newBoard()
	defer board.Stop()
	mk := func() []rwLockIface {
		return []rwLockIface{
			prwAdapter{rwlock.New(readers, core.NewFixedDelta(o.DeltaHW)), "PRW[Δ=0.5ms]"},
			prwAdapter{rwlock.New(readers, core.NewTickBoard(board)), "PRW[A-board]"},
			&stdAdapter{},
		}
	}
	t := report.NewTable(
		fmt.Sprintf("Extension — passive RW lock read throughput (%d readers, %v/cell × %d runs)", readers, o.Duration, o.Runs),
		"writer rate", "lock", "reader ops/s", "writer ops/s")
	for _, writerMean := range []time.Duration{10 * time.Millisecond, 200 * time.Microsecond} {
		for i := range mk() {
			if o.interrupted() {
				break
			}
			var rRates, wRates []float64
			var name string
			for run := 0; run < o.Runs; run++ {
				res := runRWCell(mk()[i], readers, writerMean, o.Duration)
				rRates = append(rRates, res.ReaderRate)
				wRates = append(wRates, res.WriterRate)
				name = res.Lock
			}
			t.AddRow(fmt.Sprintf("1/%v", writerMean), name,
				stats.FormatRate(stats.Median(rRates)), stats.FormatRate(stats.Median(wRates)))
		}
	}
	t.AddNote("the writer pays the visibility bound per acquisition; readers pay no fence and no RMW — Liu et al. [23] with Δ in place of IPIs")
	return o.markInterrupted(t)
}
