package bench

import (
	"fmt"
	"time"

	"tbtso/internal/report"
	"tbtso/internal/smr"
	"tbtso/internal/stats"
	"tbtso/internal/workload"
)

// Figure7Schemes is the lineup of the memory-consumption experiment.
func Figure7Schemes() []smr.Kind {
	return []smr.Kind{smr.KindFFHP, smr.KindHP, smr.KindRCU}
}

// Figure7 regenerates the retired-node memory-consumption experiment:
// the read/write workload with one reader stalling s milliseconds
// inside a lookup, measuring peak retired-but-unreclaimed bytes.
func Figure7(o Options) *report.Table {
	o = o.Defaults()
	stalls := []time.Duration{0, 10 * time.Millisecond, 40 * time.Millisecond, 150 * time.Millisecond}
	if o.Quick {
		stalls = []time.Duration{0, 30 * time.Millisecond}
	}
	// The run must comfortably contain the stall.
	dur := o.Duration
	if min := 2 * stalls[len(stalls)-1]; dur < min {
		dur = min
	}
	board := o.newBoard()
	defer board.Stop()
	t := report.NewTable(
		fmt.Sprintf("Figure 7 — peak retired-node memory vs reader stall (L=4, %d threads, %v/cell)", o.Threads, dur),
		"stall", "scheme", "peak waste", "vs FFHP")
	for _, stall := range stalls {
		var ffhp float64
		for _, kind := range Figure7Schemes() {
			if o.interrupted() {
				break
			}
			peaks := make([]float64, 0, o.Runs)
			for run := 0; run < o.Runs; run++ {
				res := RunTableCell(TableCell{
					Kind: kind, Mix: workload.ReadWrite, ChainLen: 4,
					Threads: o.Threads, Buckets: o.Buckets,
					Duration: dur, DeltaHW: o.DeltaHW, Board: board,
					Stall: stall, SampleWaste: true,
					// R scaled with the run length (the paper's 32000
					// pairs with 10 s runs) so reclamation exercises.
					R:       2048,
					Metrics: o.Metrics,
				})
				peaks = append(peaks, float64(res.PeakWaste))
			}
			med := stats.Median(peaks)
			if kind == smr.KindFFHP {
				ffhp = med
			}
			rel := "1.00"
			if ffhp > 0 {
				rel = fmt.Sprintf("%.2f", med/ffhp)
			}
			t.AddRow(stall, string(kind), stats.FormatBytes(uint64(med)), rel)
		}
	}
	t.AddNote("paper: FFHP ≤ +7%% over HP; RCU +40%% at zero stall, growing to 2–6× FFHP at max stall")
	return o.markInterrupted(t)
}
