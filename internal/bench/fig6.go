package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tbtso/internal/arena"
	"tbtso/internal/hashtable"
	"tbtso/internal/list"
	"tbtso/internal/obs"
	"tbtso/internal/ostick"
	"tbtso/internal/report"
	"tbtso/internal/smr"
	"tbtso/internal/stats"
	"tbtso/internal/workload"
)

// harnessR is the paper's retirement threshold (§7.1: R = 32000,
// ≈2 MB). Figure 7 uses a smaller R scaled to its shorter runs so
// reclamation actually exercises (see fig7.go).
const harnessR = 32000

// TableRun is the outcome of one hash-table workload cell.
type TableRun struct {
	Scheme      string
	Mix         workload.Mix
	ChainLen    int
	Threads     int
	ReaderRate  float64 // lookups per second, all readers
	UpdaterRate float64 // updates per second, all updaters
	Violations  uint64
	PeakWaste   uint64 // peak retired-unreclaimed bytes (Figure 7)
}

// TableCell parameterizes one hash-table workload cell.
type TableCell struct {
	Kind     smr.Kind
	Mix      workload.Mix
	ChainLen int
	Threads  int
	Buckets  int
	Duration time.Duration
	DeltaHW  time.Duration
	Board    *ostick.Board
	// Stall, if nonzero, makes reader 0 stall this long inside one
	// lookup at mid-run (Figure 7).
	Stall time.Duration
	// SampleWaste turns on the peak-memory sampler (Figure 7).
	SampleWaste bool
	// R overrides the retirement threshold (0 = harnessR).
	R int
	// Metrics, if non-nil, receives the scheme's counters after the run.
	Metrics *obs.Registry
}

// schemeMetrics is implemented by SMR schemes (and locks) that can
// publish their internal counters into a registry.
type schemeMetrics interface {
	Metrics(*obs.Registry)
}

// RunTableCell executes one hash-table workload cell.
func RunTableCell(cfg TableCell) TableRun {
	universe := workload.UniverseForChain(cfg.ChainLen, cfg.Buckets)
	h := cfg.Threads * list.NumSlots
	r := cfg.R
	if r == 0 {
		r = harnessR
	}
	if r <= h {
		r = h + 16
	}
	// Headroom beyond R·threads: grace-period schemes (RCU, EBR) bound
	// waste by reclamation latency rather than R, and Figure 7's whole
	// point is letting that waste grow during stalls.
	capacity := int(universe) + cfg.Threads*(r+16) + 65536
	ar := arena.New(capacity, cfg.Threads+1)
	scheme := smr.New(cfg.Kind, smr.Config{
		Threads: cfg.Threads,
		K:       list.NumSlots,
		R:       r,
		Arena:   ar,
		Delta:   cfg.DeltaHW,
		Board:   cfg.Board,
	})
	defer scheme.Close()
	table := hashtable.New(ar, scheme, cfg.Buckets)

	// Prefill with ~U/2 keys (§7.1), split across workers.
	var pre sync.WaitGroup
	for tid := 0; tid < cfg.Threads; tid++ {
		pre.Add(1)
		go func(tid int) {
			defer pre.Done()
			span := universe / uint64(cfg.Threads)
			lo := span * uint64(tid)
			hi := lo + span
			if tid == cfg.Threads-1 {
				hi = universe
			}
			coin := workload.NewKeyGen(2, int64(tid)*7+1) // fair coin
			for k := lo; k < hi; k++ {
				if coin.Next() == 0 {
					if _, err := table.Insert(tid, k); err != nil {
						return
					}
				}
			}
		}(tid)
	}
	pre.Wait()

	roles := make([]workload.Role, cfg.Threads)
	updaters := 0
	for tid := range roles {
		roles[tid] = workload.RoleOf(cfg.Mix, tid)
		if roles[tid] == workload.Updater {
			updaters++
		}
	}
	if cfg.Mix == workload.ReadWrite && updaters == 0 {
		// Fewer than 4 workers: keep at least one updater so the mix
		// is actually read/write.
		roles[cfg.Threads-1] = workload.Updater
		updaters = 1
	}

	// Per-worker counter banks: each obs.Counter fills a cache line.
	readerOps := make([]obs.Counter, cfg.Threads)
	updaterOps := make([]obs.Counter, cfg.Threads)
	var stop atomic.Bool
	var peak atomic.Uint64

	var samplerWG sync.WaitGroup
	if cfg.SampleWaste {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			for !stop.Load() {
				w := uint64(scheme.Unreclaimed()) * arena.NodeBytes
				for {
					old := peak.Load()
					if w <= old || peak.CompareAndSwap(old, w) {
						break
					}
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	var wg sync.WaitGroup
	upIdx := 0
	for tid := 0; tid < cfg.Threads; tid++ {
		role := roles[tid]
		myUp := -1
		if role == workload.Updater {
			myUp = upIdx
			upIdx++
		}
		wg.Add(1)
		go func(tid, myUp int, role workload.Role) {
			defer wg.Done()
			defer func() {
				scheme.Flush(tid)
				if rcu, ok := scheme.(*smr.RCU); ok {
					rcu.Offline(tid)
				}
			}()
			g := workload.NewKeyGen(universe, int64(tid)+100)
			switch role {
			case workload.Reader:
				stalled := cfg.Stall == 0 || tid != 0
				n := 0
				for !stop.Load() {
					for i := 0; i < 64; i++ {
						table.Lookup(tid, g.Next())
						n++
					}
					readerOps[tid].Inc()
					runtime.Gosched() // paper: every thread owns a core
					if !stalled && n > 256 {
						// The Figure 7 stall: sleep inside a lookup.
						table.LookupStalled(tid, g.Next(), func() {
							time.Sleep(cfg.Stall)
						})
						stalled = true
					}
				}
			case workload.Updater:
				lo, hi := workload.Partition(universe, myUp, updaters)
				for !stop.Load() {
					// §7.1: alternate between inserting and removing
					// each item of the owned subset. On transient arena
					// exhaustion (a stalled reader pinning garbage),
					// back off like a real allocator under pressure.
					for k := lo; k < hi && !stop.Load(); k++ {
						if _, err := table.Insert(tid, k); err != nil {
							time.Sleep(200 * time.Microsecond)
							continue
						}
						updaterOps[tid].Inc()
						if k%64 == 63 {
							runtime.Gosched()
						}
					}
					for k := lo; k < hi && !stop.Load(); k++ {
						table.Remove(tid, k)
						updaterOps[tid].Inc()
						if k%64 == 63 {
							runtime.Gosched()
						}
					}
				}
			}
		}(tid, myUp, role)
	}

	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	samplerWG.Wait()

	if cfg.Metrics != nil {
		if sm, ok := scheme.(schemeMetrics); ok {
			sm.Metrics(cfg.Metrics)
		}
	}

	secs := cfg.Duration.Seconds()
	return TableRun{
		Scheme:      scheme.Name(),
		Mix:         cfg.Mix,
		ChainLen:    cfg.ChainLen,
		Threads:     cfg.Threads,
		ReaderRate:  float64(sumCounters(readerOps)) * 64 / secs,
		UpdaterRate: float64(sumCounters(updaterOps)) / secs,
		Violations:  ar.Violations(),
		PeakWaste:   peak.Load(),
	}
}

// sumCounters totals a per-worker counter bank.
func sumCounters(cs []obs.Counter) uint64 {
	var t uint64
	for i := range cs {
		t += cs[i].Load()
	}
	return t
}

// Figure6Schemes is the scheme lineup of Figure 6.
func Figure6Schemes() []smr.Kind {
	return []smr.Kind{smr.KindFFHP, smr.KindFFHPTicks, smr.KindHP, smr.KindRCU, smr.KindDTA, smr.KindStack, smr.KindEBR}
}

// Figure6Scaling sweeps worker counts for the read-only short-chain
// workload — the x-axis of the paper's Figure 6 plots — for the three
// schemes whose ordering the paper's headline compares.
func Figure6Scaling(o Options) *report.Table {
	o = o.Defaults()
	board := o.newBoard()
	defer board.Stop()
	counts := []int{1, 2, 4}
	if o.Threads > 4 {
		counts = append(counts, o.Threads)
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 6 (scaling) — read-only L=4 throughput vs workers (%v/cell × %d runs)", o.Duration, o.Runs),
		"workers", "scheme", "reader ops/s", "vs FFHP")
	for _, n := range counts {
		var ffhp float64
		for _, kind := range []smr.Kind{smr.KindFFHP, smr.KindHP, smr.KindRCU} {
			if o.interrupted() {
				break
			}
			rates := make([]float64, 0, o.Runs)
			for run := 0; run < o.Runs; run++ {
				res := RunTableCell(TableCell{
					Kind: kind, Mix: workload.ReadOnly, ChainLen: 4,
					Threads: n, Buckets: o.Buckets,
					Duration: o.Duration, DeltaHW: o.DeltaHW, Board: board,
					Metrics: o.Metrics,
				})
				rates = append(rates, res.ReaderRate)
			}
			med := stats.Median(rates)
			if kind == smr.KindFFHP {
				ffhp = med
			}
			rel := "1.00"
			if ffhp > 0 {
				rel = fmt.Sprintf("%.2f", med/ffhp)
			}
			t.AddRow(n, string(kind), stats.FormatRate(med), rel)
		}
	}
	t.AddNote("goroutines beyond the host's cores add concurrency, not parallelism; the paper scales to 80 hardware threads")
	return o.markInterrupted(t)
}

// Figure6 regenerates the hash-table throughput comparison: read-only
// and read/write mixes over short (L=4) and long (L=256) chains, every
// SMR scheme, reader and updater throughput.
func Figure6(o Options) *report.Table {
	o = o.Defaults()
	chains := []int{4, 256}
	if o.Quick {
		chains = []int{4, 64}
	}
	board := o.newBoard()
	defer board.Stop()
	t := report.NewTable(
		fmt.Sprintf("Figure 6 — hash table throughput (%d threads, %d buckets, %v/cell × %d runs)",
			o.Threads, o.Buckets, o.Duration, o.Runs),
		"mix", "L", "scheme", "reader ops/s", "updater ops/s", "vs FFHP")
	for _, mix := range []workload.Mix{workload.ReadOnly, workload.ReadWrite} {
		for _, L := range chains {
			var ffhpRate float64
			for _, kind := range Figure6Schemes() {
				if o.interrupted() {
					break
				}
				rates := make([]float64, 0, o.Runs)
				upRates := make([]float64, 0, o.Runs)
				var viol uint64
				for run := 0; run < o.Runs; run++ {
					res := RunTableCell(TableCell{
						Kind: kind, Mix: mix, ChainLen: L,
						Threads: o.Threads, Buckets: o.Buckets,
						Duration: o.Duration, DeltaHW: o.DeltaHW, Board: board,
						Metrics: o.Metrics,
					})
					rates = append(rates, res.ReaderRate)
					upRates = append(upRates, res.UpdaterRate)
					viol += res.Violations
				}
				med := stats.Median(rates)
				upMed := stats.Median(upRates)
				if kind == smr.KindFFHP {
					ffhpRate = med
				}
				rel := "1.00"
				if ffhpRate > 0 {
					rel = fmt.Sprintf("%.2f", med/ffhpRate)
				}
				row := []any{mix, L, string(kind), stats.FormatRate(med), stats.FormatRate(upMed), rel}
				if viol > 0 {
					row = append(row[:5], fmt.Sprintf("%s [%d VIOLATIONS]", rel, viol))
				}
				t.AddRow(row...)
			}
		}
	}
	t.AddNote("paper (Westmere-EX): FFHP ≈ RCU, 30%% over HP read-only; DTA −30%% on short ops; StackTrack splits on long ops; DTA updates >100× slower")
	return o.markInterrupted(t)
}
