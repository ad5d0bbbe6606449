package bench

import (
	"strings"
	"testing"
	"time"

	"tbtso/internal/quiesce"
	"tbtso/internal/report"
	"tbtso/internal/smr"
	"tbtso/internal/workload"
)

// tinyOptions keeps harness self-tests fast.
func tinyOptions() Options {
	return Options{
		Duration: 25 * time.Millisecond,
		Threads:  3,
		Buckets:  64,
		Runs:     1,
		Quick:    true,
	}.Defaults()
}

func render(t *testing.T, tbl interface {
	Rows() [][]string
}) [][]string {
	t.Helper()
	rows := tbl.Rows()
	if len(rows) == 0 {
		t.Fatal("empty table")
	}
	return rows
}

func TestFigure4Table(t *testing.T) {
	tbl := Figure4(tinyOptions())
	rows := render(t, tbl)
	if len(rows) != 9 {
		t.Fatalf("figure 4 has %d rows, want 9 thread counts", len(rows))
	}
}

func TestFigure5Table(t *testing.T) {
	tbl := Figure5(tinyOptions())
	rows := render(t, tbl)
	if len(rows) != 6 { // 3 placements × 2 loads
		t.Fatalf("figure 5 has %d rows, want 6", len(rows))
	}
}

func TestFigure5CDFExport(t *testing.T) {
	pts := Figure5CDF(quiesce.PlacementSameSocket, quiesce.LoadIdle, 50_000)
	if len(pts) == 0 {
		t.Fatal("no CDF points")
	}
}

func TestRunTableCellCleanAndCounts(t *testing.T) {
	o := tinyOptions()
	board := o.newBoard()
	defer board.Stop()
	for _, kind := range []smr.Kind{smr.KindFFHP, smr.KindHP, smr.KindRCU} {
		res := RunTableCell(TableCell{
			Kind: kind, Mix: workload.ReadWrite, ChainLen: 4,
			Threads: o.Threads, Buckets: o.Buckets,
			Duration: o.Duration, DeltaHW: o.DeltaHW, Board: board,
			R: 512,
		})
		if res.Violations != 0 {
			t.Fatalf("%v: %d arena violations", kind, res.Violations)
		}
		if res.ReaderRate <= 0 {
			t.Fatalf("%v: no reader throughput", kind)
		}
		if res.UpdaterRate <= 0 {
			t.Fatalf("%v: no updater throughput (read-write mix must have an updater)", kind)
		}
	}
}

func TestFigure7ProducesWaste(t *testing.T) {
	o := tinyOptions()
	board := o.newBoard()
	defer board.Stop()
	res := RunTableCell(TableCell{
		Kind: smr.KindRCU, Mix: workload.ReadWrite, ChainLen: 4,
		Threads: o.Threads, Buckets: o.Buckets,
		Duration: 60 * time.Millisecond, DeltaHW: o.DeltaHW, Board: board,
		Stall: 20 * time.Millisecond, SampleWaste: true, R: 256,
	})
	if res.PeakWaste == 0 {
		t.Fatal("stalled RCU run recorded zero peak waste")
	}
}

func TestRunLockPatternCounts(t *testing.T) {
	o := tinyOptions()
	locks, names, cleanup := Figure8Locks(o)
	defer cleanup()
	if len(locks) != 7 || len(names) != 7 {
		t.Fatalf("lineup has %d locks", len(locks))
	}
	pat := workload.LockPattern{Name: "t", OwnerMean: time.Microsecond, OtherMean: 50 * time.Microsecond}
	for i, mk := range locks {
		res := runLockPattern(mk, pat, 30*time.Millisecond, nil)
		if res.OwnerRate <= 0 || res.OtherRate <= 0 {
			t.Fatalf("%s: owner %v other %v", names[i], res.OwnerRate, res.OtherRate)
		}
	}
}

func TestBailoutTable(t *testing.T) {
	tbl := Bailout(tinyOptions())
	rows := render(t, tbl)
	if len(rows) != 6 {
		t.Fatalf("bailout table has %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r[len(r)-1] != "true" {
			t.Fatalf("a placement exceeded the Δ budget: %v", r)
		}
	}
}

func TestFigure6ScalingTable(t *testing.T) {
	o := tinyOptions()
	o.Duration = 10 * time.Millisecond
	tbl := Figure6Scaling(o)
	rows := render(t, tbl)
	if len(rows)%3 != 0 || len(rows) == 0 {
		t.Fatalf("scaling table has %d rows, want a multiple of 3 schemes", len(rows))
	}
}

func TestMachineCostTable(t *testing.T) {
	tbl := MachineCost(tinyOptions())
	rows := render(t, tbl)
	if len(rows) != 6 { // 2 chain lengths × 3 modes
		t.Fatalf("machine cost table has %d rows", len(rows))
	}
	// HP rows must report fences; the others must not.
	for _, r := range rows {
		isHP := r[1] == "HP"
		hasFences := r[3] != "0"
		if isHP != hasFences {
			t.Fatalf("fence attribution wrong in row %v", r)
		}
	}
}

func TestRWLockTable(t *testing.T) {
	o := tinyOptions()
	o.Duration = 10 * time.Millisecond
	tbl := RWLock(o)
	rows := render(t, tbl)
	if len(rows) != 6 { // 2 writer rates × 3 locks
		t.Fatalf("rwlock table has %d rows", len(rows))
	}
}

func TestSizingResultSane(t *testing.T) {
	// The tiny duration can elapse before the workers retire anything
	// when the scheduler is slow (race detector, loaded CI box); grow
	// the window instead of flaking.
	o := tinyOptions()
	var res SizingResult
	for try := 0; ; try++ {
		var tbl *report.Table
		tbl, res = Sizing(o)
		render(t, tbl)
		if res.RetireRatePerMsPerThread > 0 || try == 3 {
			break
		}
		o.Duration *= 4
	}
	if res.RetireRatePerMsPerThread <= 0 {
		t.Fatal("no retirement measured")
	}
	if res.SuggestedR <= 0 {
		t.Fatal("no suggested R")
	}
}

func TestFigure6TableShape(t *testing.T) {
	o := tinyOptions()
	o.Duration = 15 * time.Millisecond
	tbl := Figure6(o)
	rows := render(t, tbl)
	want := 2 * 2 * len(Figure6Schemes()) // mixes × chains × schemes
	if len(rows) != want {
		t.Fatalf("figure 6 has %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		for _, c := range r {
			if strings.Contains(c, "VIOLATIONS") {
				t.Fatalf("figure 6 row reports violations: %v", r)
			}
		}
	}
}
