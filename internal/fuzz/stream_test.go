package fuzz

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbtso/internal/mc"
	"tbtso/internal/obs/monitor"
	"tbtso/internal/tso"
)

// withSampler makes every campaign worker of the test sample on
// newS's samplers.
func withSampler(t *testing.T, newS func() sampler) {
	old := newSampler
	newSampler = newS
	t.Cleanup(func() { newSampler = old })
}

// plantingSampler rejects every run whose machine seed is a multiple of
// 7: at Δ 0 it reports an outcome outside every set, above Δ 0 a run
// that does not replay. The runs it plants mismatches on depend only on
// the schedule, which is the same at every Δ, so a campaign finds
// mismatches at each Δ and its report stays worker-count independent.
type plantingSampler struct{ *Sampler }

func planted(run MachineRun) bool { return run.Seed%7 == 0 }

func (s plantingSampler) sample(p mc.Program, run MachineRun, sinks ...tso.Sink) ([]byte, tso.Result, error) {
	out, res, err := s.Sampler.sample(p, run, sinks...)
	if err == nil && planted(run) {
		out = append(out, " planted"...)
	}
	return out, res, err
}

func (s plantingSampler) SampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) (string, tso.Result, bool, error) {
	outcome, res, witnessed, err := s.Sampler.SampleWitness(p, run, cover, sinks...)
	return outcome, res, witnessed && !planted(run), err
}

// gate holds the first machine run of seed's program at Δ 0 and at
// Δ > 0 until release is closed, announcing each on arrived, so the
// program's two cells sit on two workers at once.
type gate struct {
	seed    int64
	arrived chan struct{}
	release chan struct{}
	once    [2]sync.Once
}

func (g *gate) hold(run MachineRun) {
	if run.Seed/1000003 != g.seed { // the program's seed (Config.MachSeeds < 101)
		return
	}
	j := 0
	if run.Delta > 0 {
		j = 1
	}
	g.once[j].Do(func() {
		g.arrived <- struct{}{}
		<-g.release
	})
}

// gateSampler samples on its Sampler, held at its gate.
type gateSampler struct {
	*Sampler
	g *gate
}

func (s gateSampler) sample(p mc.Program, run MachineRun, sinks ...tso.Sink) ([]byte, tso.Result, error) {
	s.g.hold(run)
	return s.Sampler.sample(p, run, sinks...)
}

func (s gateSampler) SampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) (string, tso.Result, bool, error) {
	s.g.hold(run)
	return s.Sampler.SampleWitness(p, run, cover, sinks...)
}

// TestStreamWindowBound: while fold blocks on the first program, the
// workers check exactly one window of programs and then stall — the
// bound that keeps a campaign's memory flat in n. Checks are counted as
// they start: Stream opens a flight recorder for each (seed, Δ) cell it
// takes, just before checking it, so a program is len(Deltas) of them.
func TestStreamWindowBound(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var cells atomic.Uint64
		cfg := obsTestConfig(workers)
		cfg.Flight = monitor.NewShardedFlight(func() *monitor.Residency {
			cells.Add(1)
			return nil
		}, 0)
		cfg.Flight.Begin(1)
		_, window := cfg.Parallelism()
		n := 2*window + 5
		programs := func() uint64 { return cells.Load() / uint64(len(cfg.Deltas)) }

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
		for programs() < uint64(window) {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: only %d programs checked, want %d", workers, programs(), window)
			}
			time.Sleep(time.Millisecond)
		}
		// Give the workers time to overrun the window if they could.
		time.Sleep(50 * time.Millisecond)
		if got := cells.Load(); got != uint64(window*len(cfg.Deltas)) {
			t.Errorf("workers=%d: %d cells checked while fold blocked, want exactly %d programs' %d", workers, got, window, window*len(cfg.Deltas))
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
