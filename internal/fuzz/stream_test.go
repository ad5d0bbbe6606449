package fuzz

import (
	"bytes"
	"runtime"
	"sync"
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

func (s plantingSampler) sampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) ([]byte, tso.Result, bool, error) {
	out, res, witnessed, err := s.Sampler.sampleWitness(p, run, cover, sinks...)
	return out, res, witnessed && !planted(run), err
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

func (s gateSampler) sampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) ([]byte, tso.Result, bool, error) {
	s.g.hold(run)
	return s.Sampler.sampleWitness(p, run, cover, sinks...)
}

// windowWatch records the (program, Δ) cells whose machine runs start
// while the campaign's first program is held unfolded.
type windowWatch struct {
	mu    sync.Mutex
	held  bool
	cells map[[2]int64]bool
	limit int           // window × len(Deltas)
	full  chan struct{} // closed once limit cells have started
}

func (w *windowWatch) start(run MachineRun) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cell := [2]int64{run.Seed / 1000003, int64(run.Delta)} // (program seed, Δ); Config.MachSeeds < 101
	if !w.held || w.cells[cell] {
		return
	}
	w.cells[cell] = true
	if len(w.cells) == w.limit {
		close(w.full)
	}
}

// windowSampler samples on its Sampler, reporting each run to its watch.
type windowSampler struct {
	*Sampler
	w *windowWatch
}

func (s windowSampler) sample(p mc.Program, run MachineRun, sinks ...tso.Sink) ([]byte, tso.Result, error) {
	s.w.start(run)
	return s.Sampler.sample(p, run, sinks...)
}

func (s windowSampler) sampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) ([]byte, tso.Result, bool, error) {
	s.w.start(run)
	return s.Sampler.sampleWitness(p, run, cover, sinks...)
}

// TestStreamWindowBound: while fold holds the first program, the
// workers start exactly one window of programs' cells, window ×
// len(Deltas), and no more — the bound that keeps a campaign's memory
// flat in n. Every machine run reports its cell as it starts, and fold
// reads the count once the window is full and has stayed held 50 ms
// more, time for a worker to overrun it if it can. The wait only gives
// an overrun room to show: the count exceeds the bound only if a worker
// really overran it.
func TestStreamWindowBound(t *testing.T) {
	for _, workers := range []int{1, 3} {
		// No cell truncates at this budget, so every cell samples.
		cfg := Config{Deltas: []int{0, 1}, MachSeeds: 1, MaxStates: mc.DefaultMaxStates, CrossCheckStates: -1, Workers: workers}
		_, window := cfg.Parallelism()
		w := &windowWatch{held: true, cells: map[[2]int64]bool{}, limit: window * len(cfg.Deltas), full: make(chan struct{})}
		withSampler(t, func() sampler { return windowSampler{NewSampler(), w} })
		n := 2*window + 5
		folded := 0
		done, err := Stream(nil, cfg, n, 1, func(Report) bool {
			if folded == 0 {
				select {
				case <-w.full:
					time.Sleep(50 * time.Millisecond)
				case <-time.After(time.Minute):
				}
				w.mu.Lock()
				started := len(w.cells)
				w.held = false
				w.mu.Unlock()
				if started != w.limit {
					t.Errorf("workers=%d: %d cells started while the first program was held, want exactly %d programs' %d", workers, started, window, w.limit)
				}
			}
			folded++
			return true
		})
		if err != nil || done != n || folded != n {
			t.Errorf("workers=%d: done=%d folded=%d err=%v, want %d folded", workers, done, folded, err, n)
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
