package main

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"tbtso/internal/bench"
	"tbtso/internal/core"
	"tbtso/internal/lock"
	"tbtso/internal/obs"
	"tbtso/internal/smr"
	"tbtso/internal/stats"
	"tbtso/internal/vclock"
	"tbtso/internal/workload"
)

const (
	paperCell    = time.Second
	paperToyCell = 50 * time.Millisecond
	paperRoundS  = 4.2 // nominal seconds per untraced round
)

// paperRates are the rates a paper round always measures, one cell
// each: FFHP lookups on the read-only mix, FFHP updates on the
// read/write mix, the FFBL owner on owner-freq/other-rare, and the FFBL
// non-owner on owner-stalls. work_per_s is their geometric mean.
var paperRates = []string{"ffhp_lookups", "ffhp_updates", "ffbl_owner", "ffbl_stall"}

// compareRates are the comparison schemes' rates a traced round adds:
// HP and RCU lookups on the read-only mix, and the safe-point lock's
// non-owner on owner-stalls.
var compareRates = []string{"hp_lookups", "rcu_lookups", "safepoint_stall"}

// roundOut is one paper-round child's result.
type roundOut struct {
	LoopNS     int64              `json:"loop_ns"` // the cells' measured durations
	Rates      map[string]float64 `json:"rates"`
	Violations uint64             `json:"violations"`
	Counters   map[string]uint64  `json:"counters"`
	Spans      []span             `json:"spans"`
}

func lockPattern(name string) (workload.LockPattern, error) {
	pats := workload.Patterns()
	i := slices.IndexFunc(pats, func(p workload.LockPattern) bool { return p.Name == name })
	if i < 0 {
		return workload.LockPattern{}, fmt.Errorf("no lock pattern %q", name)
	}
	return pats[i], nil
}

// paperRoundChild runs one round of cells on W threads. With -compare
// it adds the comparison schemes' cells (HP and RCU lookups, the
// safe-point lock under owner stalls) and reads the FFHP and FFBL
// counters through each scheme's own Metrics.
func paperRoundChild(args []string) (*roundOut, error) {
	fs := flag.NewFlagSet("paper-round", flag.ContinueOnError)
	cell := fs.Duration("cell", paperCell, "measured time per cell")
	threads := fs.Int("threads", 2, "hash-table worker threads")
	compare := fs.Bool("compare", false, "add the comparison cells and scheme counters")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	ownerFreq, err := lockPattern("owner-freq/other-rare")
	if err != nil {
		return nil, err
	}
	stalls, err := lockPattern("owner-stalls")
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry
	if *compare {
		reg = obs.NewRegistry()
	}

	out := &roundOut{Rates: map[string]float64{}, Counters: map[string]uint64{}}
	rec := &recorder{origin: time.Now()}
	cells := 0
	table := func(name string, kind smr.Kind, mix workload.Mix, metrics *obs.Registry) bench.TableRun {
		t := rec.now()
		r := bench.RunTableCell(bench.TableCell{
			Kind: kind, Mix: mix, ChainLen: 4, Threads: *threads, Buckets: 1024,
			Duration: *cell, DeltaHW: vclock.HardwareDelta, Metrics: metrics,
		})
		rec.end("paper."+name, 0, t, false, 0, 0)
		out.Violations += r.Violations
		cells++
		return r
	}
	lockCell := func(name string, mk func() lock.BiasedLock, pat workload.LockPattern) bench.LockRates {
		t := rec.now()
		r := bench.RunLockCell(mk, pat, *cell)
		rec.end("paper."+name, 0, t, false, 0, 0)
		cells++
		return r
	}
	var ffbl *lock.FFBL
	newFFBL := func() lock.BiasedLock {
		ffbl = lock.NewFFBL(core.NewFixedDelta(vclock.HardwareDelta), true)
		return ffbl
	}

	out.Rates["ffhp_lookups"] = table("ffhp_ro", smr.KindFFHP, workload.ReadOnly, reg).ReaderRate
	out.Rates["ffhp_updates"] = table("ffhp_rw", smr.KindFFHP, workload.ReadWrite, reg).UpdaterRate
	out.Rates["ffbl_owner"] = lockCell("ffbl_owner", newFFBL, ownerFreq).OwnerRate
	if reg != nil {
		ffbl.Metrics(reg)
	}
	out.Rates["ffbl_stall"] = lockCell("ffbl_stall", newFFBL, stalls).OtherRate
	if reg != nil {
		ffbl.Metrics(reg)
		out.Rates["hp_lookups"] = table("hp_ro", smr.KindHP, workload.ReadOnly, nil).ReaderRate
		out.Rates["rcu_lookups"] = table("rcu_ro", smr.KindRCU, workload.ReadOnly, nil).ReaderRate
		newSafePoint := func() lock.BiasedLock { return lock.NewSafePointBiased() }
		out.Rates["safepoint_stall"] = lockCell("safepoint_stall", newSafePoint, stalls).OtherRate
		counter := func(name string) uint64 {
			if c, ok := reg.LookupCounter(name); ok {
				return c.Load()
			}
			return 0
		}
		ffhp := "smr." + string(smr.KindFFHP) + "."
		fl := "lock." + ffbl.Name() + "."
		for key, name := range map[string]string{
			"retires": ffhp + "retires", "scans": ffhp + "scans", "frees": ffhp + "frees",
			"revocations": fl + "revocations", "echoes": fl + "echoes", "full_waits": fl + "full_waits",
		} {
			out.Counters[key] = counter(name)
		}
	}
	rec.end("paper.round", 0, 0, true, 0, 0)
	out.LoopNS = int64(cells) * int64(*cell)
	out.Spans = rec.spans
	return out, nil
}

// paperRounds runs n paper-round children, gating every cell.
func paperRounds(e *env, res *result, n int, compare bool) ([]roundOut, []child, error) {
	cell := paperCell
	if e.toy {
		cell = paperToyCell
	}
	args := []string{"-cell", cell.String(), "-threads", strconv.Itoa(e.w)}
	rates := paperRates
	if compare {
		args = append(args, "-compare")
		rates = append(slices.Clone(paperRates), compareRates...)
	}
	var rounds []roundOut
	var children []child
	for i := range n {
		var r roundOut
		c, err := runChild(e, "paper-round", &r, args...)
		if err != nil {
			return nil, nil, err
		}
		for _, name := range rates {
			res.attempted++
			if !(r.Rates[name] > 0) {
				res.fail("round %d: %s rate is %v", i, name, r.Rates[name])
			}
		}
		if r.Violations != 0 {
			res.fail("round %d: %d arena violations", i, r.Violations)
		}
		rounds = append(rounds, r)
		children = append(children, c)
	}
	return rounds, children, nil
}

// medianRate is the median of one rate over rounds.
func medianRate(rounds []roundOut, name string) float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, r.Rates[name])
	}
	return stats.Median(xs)
}

// paperScore is the geometric mean of the paper rates' medians.
func paperScore(rounds []roundOut) float64 {
	var logSum float64
	for _, name := range paperRates {
		logSum += math.Log(medianRate(rounds, name))
	}
	return math.Exp(logSum / float64(len(paperRates)))
}

func runPaper(e *env) (*result, error) {
	res := newResult()
	rounds, children, err := paperRounds(e, res, e.rounds(paperRoundS, 3), false)
	if err != nil {
		return nil, err
	}
	var setups, rss []float64
	for i, c := range children {
		setups = append(setups, c.ready.Seconds()-float64(rounds[i].LoopNS)/1e9)
		rss = append(rss, c.rssMB)
	}
	res.metrics["work_per_s"] = paperScore(rounds)
	res.metrics["setup_s"] = stats.Median(setups)
	res.metrics["peak_rss_mb"] = stats.Median(rss)
	return res, nil
}

// tracePaper runs half the rounds as the untraced run does, for the
// untraced score and CPU time, and half with spans, the comparison
// cells and the scheme counters.
func tracePaper(e *env) (*result, error) {
	start := time.Now()
	res := newResult()
	half := max(e.rounds(paperRoundS, 3)/2, 1)
	plain, plainChildren, err := paperRounds(e, res, half, false)
	if err != nil {
		return nil, err
	}
	traced, children, err := paperRounds(e, res, half, true)
	if err != nil {
		return nil, err
	}

	m := res.metrics
	for i, r := range traced {
		res.spans = append(res.spans, adopt(r.Spans, i+1, children[i].start.Sub(start))...)
	}
	ffhp := medianRate(traced, "ffhp_lookups")
	m["smr.ffhp.lookups_per_s"] = ffhp
	m["smr.ffhp.updates_per_s"] = medianRate(traced, "ffhp_updates")
	m["lock.ffbl.owner_acq_per_s"] = medianRate(traced, "ffbl_owner")
	m["lock.ffbl.stall_acq_per_s"] = medianRate(traced, "ffbl_stall")
	m["smr.hp.lookups_per_s"] = medianRate(traced, "hp_lookups")
	m["smr.rcu.lookups_per_s"] = medianRate(traced, "rcu_lookups")
	m["lock.safepoint.stall_acq_per_s"] = medianRate(traced, "safepoint_stall")
	m["paper.ffhp_over_hp"] = ratio(ffhp, m["smr.hp.lookups_per_s"])
	m["paper.rcu_over_ffhp"] = ratio(m["smr.rcu.lookups_per_s"], ffhp)
	m["paper.ffbl_over_safepoint"] = ratio(m["lock.ffbl.stall_acq_per_s"], m["lock.safepoint.stall_acq_per_s"])
	for key, name := range map[string]string{
		"retires": "smr.ffhp.retires", "scans": "smr.ffhp.scans", "frees": "smr.ffhp.frees",
		"revocations": "lock.ffbl.revocations", "echoes": "lock.ffbl.echoes", "full_waits": "lock.ffbl.full_waits",
	} {
		var total uint64
		for _, r := range traced {
			total += r.Counters[key]
		}
		m[name] = float64(total)
	}
	var cpu float64
	for _, c := range plainChildren {
		cpu += c.cpu.Seconds()
	}
	m["cpu_s"] = cpu
	m["trace.overhead"] = paperScore(plain)/paperScore(traced) - 1
	m["trace.counts_match"] = 1 // the paper cells measure rates; there are no exact counts to compare
	return res, sbProbe(e, res)
}
