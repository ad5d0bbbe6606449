package tso

import (
	"testing"
)

// collectSink gathers events and the BeginRun notification.
type collectSink struct {
	names  []string
	delta  uint64
	events []Event
}

func (s *collectSink) BeginRun(names []string, delta uint64) { s.names, s.delta = names, delta }
func (s *collectSink) Emit(e Event)                          { s.events = append(s.events, e) }

// mixedWorkload drives a machine through every drain cause: buffered
// stores (policy + Δ), fences, RMWs, a capacity-bounded buffer, timer
// interrupts, and an end-of-run flush.
func mixedWorkload(cfg Config) *Machine {
	m := New(cfg)
	a := m.AllocWords(8)
	for i := 0; i < 3; i++ {
		id := i
		m.Spawn("worker", func(t *Thread) {
			for k := 0; k < 40; k++ {
				t.Store(a+Addr(k%8), Word(k+id))
				if k%9 == 8 {
					t.Fence()
				}
				if k%13 == 12 {
					t.CAS(a, 0, Word(k))
				}
				if k%7 == 6 {
					_ = t.Load(a + Addr((k+1)%8))
				}
			}
			// Leave stores buffered so the final flush has work.
			t.Store(a+Addr(id), Word(99+id))
		})
	}
	return m
}

// TestDrainCausesSumToCommits asserts the satellite invariant: every
// commit has exactly one cause, so the per-cause breakdown sums to
// Commits across machine configurations.
func TestDrainCausesSumToCommits(t *testing.T) {
	cfgs := []Config{
		{Delta: 30, Policy: DrainAdversarial, Seed: 1},
		{Delta: 0, Policy: DrainRandom, Seed: 2},
		{Delta: 0, Policy: DrainEager, Seed: 3},
		{Delta: 50, Policy: DrainRandom, Seed: 4, BufferCap: 2},
		{Delta: 0, Policy: DrainAdversarial, Seed: 5, BufferCap: 3},
		{Delta: 80, Policy: DrainAdversarial, Seed: 6, TickPeriod: 25},
		{Delta: 40, Policy: DrainRandom, Seed: 7, StallProb: 0.2},
	}
	for _, cfg := range cfgs {
		res := mixedWorkload(cfg).Run()
		if res.Err != nil {
			t.Fatalf("cfg %+v: %v", cfg, res.Err)
		}
		if res.Stats.Commits != res.Stats.Stores {
			t.Errorf("cfg %+v: %d commits for %d stores", cfg, res.Stats.Commits, res.Stats.Stores)
		}
		var got uint64
		for _, n := range res.Stats.Drains {
			got += n
		}
		if got != res.Stats.Commits {
			t.Errorf("cfg %+v: drain causes sum to %d, want Commits=%d (%+v)",
				cfg, got, res.Stats.Commits, res.Stats.Drains)
		}
	}
}

// TestDrainCauseAttribution checks that specific configurations route
// commits to the causes the model says they must.
func TestDrainCauseAttribution(t *testing.T) {
	// Adversarial + Δ: drains are Δ-forced (or fence/RMW/final), never
	// policy. Premise: without the bound, some store stays buffered at
	// least Δ−1 ticks (the run is the same up to that tick), so the
	// bound must force it.
	const delta = 20
	unbounded := mixedWorkload(Config{Policy: DrainAdversarial, Seed: 1}).Run()
	if unbounded.Err != nil {
		t.Fatal(unbounded.Err)
	}
	if unbounded.Stats.MaxCommitLatency < delta-1 {
		t.Fatalf("premise: unbounded run buffers a store at most %d ticks, below Δ−1 = %d",
			unbounded.Stats.MaxCommitLatency, delta-1)
	}
	res := mixedWorkload(Config{Delta: delta, Policy: DrainAdversarial, Seed: 1}).Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.Drains[CausePolicy] != 0 {
		t.Errorf("adversarial policy recorded %d policy drains", res.Stats.Drains[CausePolicy])
	}
	if res.Stats.Drains[CauseDelta] == 0 {
		t.Error("adversarial + Δ recorded no Δ-forced drains")
	}

	// TSO[S] under adversarial drains with no Δ: only capacity, fence,
	// RMW and final drains are possible.
	res = mixedWorkload(Config{Delta: 0, Policy: DrainAdversarial, Seed: 2, BufferCap: 2}).Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	d := res.Stats.Drains
	if d[CauseCapacity] == 0 {
		t.Error("TSO[S=2] recorded no capacity drains")
	}
	if d[CauseDelta] != 0 || d[CausePolicy] != 0 || d[CauseInterrupt] != 0 {
		t.Errorf("unexpected causes under TSO[S] adversarial: %+v", d)
	}

	// Timer interrupts drain buffers.
	res = mixedWorkload(Config{Delta: 0, Policy: DrainAdversarial, Seed: 3, TickPeriod: 20}).Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.Drains[CauseInterrupt] == 0 {
		t.Error("TickPeriod=20 recorded no interrupt drains")
	}
}

// TestSinkSeesTraceEvents asserts a sink attached with AttachSink
// observes exactly the event stream a Config.Sinks Recorder records,
// and that BeginRun delivers thread names and Δ.
func TestSinkSeesTraceEvents(t *testing.T) {
	sink, rec := &collectSink{}, &Recorder{}
	m := mixedWorkload(Config{Delta: 40, Policy: DrainRandom, Seed: 11, Sinks: []Sink{rec}})
	m.AttachSink(sink)
	res := m.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	tr := rec.Events
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	if len(sink.events) != len(tr) {
		t.Fatalf("sink saw %d events, trace recorded %d", len(sink.events), len(tr))
	}
	for i := range tr {
		if sink.events[i] != tr[i] {
			t.Fatalf("event %d differs: sink %+v trace %+v", i, sink.events[i], tr[i])
		}
	}
	if sink.delta != 40 || len(sink.names) != 3 || sink.names[0] != "worker" {
		t.Fatalf("BeginRun got names=%v delta=%d", sink.names, sink.delta)
	}
	// Commit events must carry a valid cause and enqueue tick.
	commits := 0
	for _, e := range sink.events {
		if e.Kind == EvCommit {
			commits++
			if e.Enq > e.Tick {
				t.Fatalf("commit enqueued at %d after committing at %d", e.Enq, e.Tick)
			}
			if int(e.Cause) < 0 || int(e.Cause) >= NumDrainCauses {
				t.Fatalf("commit with invalid cause %d", e.Cause)
			}
		}
	}
	if uint64(commits) != res.Stats.Commits {
		t.Fatalf("sink saw %d commits, stats say %d", commits, res.Stats.Commits)
	}
}

// TestTraceStillValidatesUnderSinks re-runs the CheckTrace oracle over
// the sink-delivered stream.
func TestTraceStillValidatesUnderSinks(t *testing.T) {
	sink := &collectSink{}
	m := mixedWorkload(Config{Delta: 60, Policy: DrainRandom, Seed: 5, Sinks: []Sink{sink}})
	if res := m.Run(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := CheckTrace(sink.events, 3, 60); err != nil {
		t.Fatalf("sink stream fails the TSO oracle: %v", err)
	}
}

// TestNoSinkZeroAlloc guards the acceptance criterion: with no sink
// attached, the machine's event path allocates nothing. The emit path
// is exercised exactly as the scheduler does — construct the event,
// check the sink count, skip.
func TestNoSinkZeroAlloc(t *testing.T) {
	m := New(Config{Delta: 20, Policy: DrainRandom, Seed: 9})
	allocs := testing.AllocsPerRun(1000, func() {
		if len(m.sinks) > 0 {
			m.emit(Event{Tick: 1, Thread: 0, Kind: EvStore, Addr: 1, Val: 2})
		}
	})
	if allocs != 0 {
		t.Fatalf("no-sink event path allocates %.1f bytes/op, want 0", allocs)
	}
}

// TestEmitWithSinkZeroAlloc asserts that streaming to an allocation-free
// sink allocates nothing per event either (the Event travels by value
// through the interface).
func TestEmitWithSinkZeroAlloc(t *testing.T) {
	m := New(Config{})
	var n int
	m.AttachSink(countSink{&n})
	allocs := testing.AllocsPerRun(1000, func() {
		m.emit(Event{Tick: 1, Thread: 0, Kind: EvLoad, Addr: 3, Val: 4})
	})
	if allocs != 0 {
		t.Fatalf("emit through a no-op sink allocates %.1f bytes/op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("sink never invoked")
	}
}

type countSink struct{ n *int }

func (c countSink) Emit(Event) { *c.n++ }
