package fuzz

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tbtso/internal/obs/monitor"
)

// TestStreamWindowBound: while fold blocks on the first program, the
// workers check exactly one window of seeds and then stall — the
// bound that keeps a campaign's memory flat in n. Checks are counted as
// they start: Stream opens a flight recorder for each seed it takes,
// just before checking it.
func TestStreamWindowBound(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var programs atomic.Uint64
		cfg := obsTestConfig(workers)
		cfg.Flight = monitor.NewShardedFlight(func() *monitor.Set {
			programs.Add(1)
			return nil
		}, 0)
		cfg.Flight.Begin(1)
		_, window := cfg.Parallelism()
		n := 2*window + 5

		release := make(chan struct{})
		type outcome struct {
			done   int
			folded int
			err    error
		}
		out := make(chan outcome, 1)
		go func() {
			folded := 0
			done, err := Stream(nil, cfg, n, 1, func(Report) bool {
				if folded == 0 {
					<-release
				}
				folded++
				return true
			})
			out <- outcome{done, folded, err}
		}()

		deadline := time.Now().Add(time.Minute)
		for programs.Load() < uint64(window) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: only %d programs checked, want %d", workers, programs.Load(), window)
			}
			time.Sleep(time.Millisecond)
		}
		// Give the workers time to overrun the window if they could.
		time.Sleep(50 * time.Millisecond)
		if got := programs.Load(); got != uint64(window) {
			t.Errorf("workers=%d: %d programs checked while fold blocked, want exactly %d", workers, got, window)
		}
		close(release)
		res := <-out
		if res.err != nil || res.done != n || res.folded != n {
			t.Errorf("workers=%d: done=%d folded=%d err=%v, want %d folded", workers, res.done, res.folded, res.err, n)
		}
	}
}

// TestStreamStopsEarly: a fold that returns false at the k-th program
// stops the stream there — exactly k programs folded, every worker
// gone, and the flight holding only the folded seeds.
func TestStreamStopsEarly(t *testing.T) {
	const n, k = 40, 7
	const start = int64(1)
	before := runtime.NumGoroutine()

	cfg := obsTestConfig(3)
	cfg.Flight = monitor.NewShardedFlight(nil, n)
	cfg.Flight.Begin(start)
	folded := 0
	done, err := Stream(nil, cfg, n, start, func(Report) bool {
		folded++
		return folded < k
	})
	if err != nil || done != k || folded != k {
		t.Fatalf("done=%d folded=%d err=%v, want %d", done, folded, err, k)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Stream returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	var buf bytes.Buffer
	if err := cfg.Flight.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := monitor.ReadCampaignFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.NextSeed != start+k || len(doc.Groups) != k {
		t.Fatalf("flight covers [%d,%d) with %d groups, want the %d folded seeds", doc.FirstSeed, doc.NextSeed, len(doc.Groups), k)
	}
	for i, g := range doc.Groups {
		if g.Seed != start+int64(i) {
			t.Errorf("group %d has seed %d, want %d", i, g.Seed, start+int64(i))
		}
	}
}
