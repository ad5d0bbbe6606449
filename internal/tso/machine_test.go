package tso

import "testing"

func TestMonitorSeesAllTraffic(t *testing.T) {
	rec := &Recorder{}
	m := New(Config{Policy: DrainEager, Seed: 1, Sinks: []Sink{rec}})
	a := m.AllocWords(2)
	m.Spawn("w", func(th *Thread) {
		th.Store(a, 1)
		th.Store(a+1, 2)
		_ = th.Load(a)
		th.CAS(a, 1, 5)
		th.FetchAdd(a+1, 1)
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	var n [EvFence + 1]int
	for _, e := range rec.Events {
		n[e.Kind]++
		if e.Kind == EvCommit && e.Tick < e.Enq {
			t.Fatalf("commit before enqueue: %v", e)
		}
	}
	if n[EvStore] != 2 || n[EvCommit] != 2 {
		t.Fatalf("stores: enq=%d commit=%d, want 2/2", n[EvStore], n[EvCommit])
	}
	if n[EvLoad] != 1 || n[EvRMW] != 2 {
		t.Fatalf("loads=%d rmws=%d, want 1/2", n[EvLoad], n[EvRMW])
	}
}

func TestStallProbSlowsButCompletes(t *testing.T) {
	run := func(stall float64) uint64 {
		m := New(Config{Policy: DrainEager, Seed: 5, StallProb: stall})
		a := m.AllocWords(1)
		m.Spawn("w", func(th *Thread) {
			for i := 0; i < 100; i++ {
				th.Store(a, Word(i))
				_ = th.Load(a)
			}
		})
		res := m.Run()
		if res.Err != nil {
			t.Fatalf("stall=%v: %v", stall, res.Err)
		}
		return res.Ticks
	}
	fast, slow := run(0), run(0.6)
	if slow <= fast {
		t.Fatalf("stalls did not slow execution: %d vs %d ticks", fast, slow)
	}
}

func TestSettersPanicAfterRun(t *testing.T) {
	m := New(Config{Seed: 1})
	m.Spawn("noop", func(th *Thread) { th.Yield() })
	m.Run()
	for name, fn := range map[string]func(){
		"AllocWords":   func() { m.AllocWords(1) },
		"SetWord":      func() { m.SetWord(1, 1) },
		"AttachSink":   func() { m.AttachSink(&Recorder{}) },
		"SetTickBoard": func() { m.SetTickBoard(1) },
		"Spawn":        func() { m.Spawn("x", func(*Thread) {}) },
		"Run":          func() { m.Run() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Run did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestStatsAccounting: under DrainAdversarial neither store drains
// before the fence, whatever the seed, so the buffer holds both.
func TestStatsAccounting(t *testing.T) {
	m := New(Config{Policy: DrainAdversarial})
	a := m.AllocWords(1)
	m.Spawn("w", func(th *Thread) {
		th.Store(a, 1)
		th.Store(a, 2)
		th.Fence()
		_ = th.Load(a)
		_ = th.Clock()
		th.Swap(a, 9)
	})
	res := m.Run()
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	s := res.Stats
	if s.Stores != 2 || s.Commits != 2 {
		t.Fatalf("stores=%d commits=%d", s.Stores, s.Commits)
	}
	if s.Fences != 1 || s.RMWs != 1 || s.Loads != 1 || s.ClockReads < 1 {
		t.Fatalf("fences=%d rmws=%d loads=%d clocks=%d", s.Fences, s.RMWs, s.Loads, s.ClockReads)
	}
	if s.MaxBufOccupancy != 2 {
		t.Fatalf("MaxBufOccupancy=%d, want 2", s.MaxBufOccupancy)
	}
}

func TestThreadIdentity(t *testing.T) {
	m := New(Config{Seed: 1})
	var id int
	var name string
	m.Spawn("zero", func(th *Thread) { th.Yield() })
	m.Spawn("alice", func(th *Thread) {
		id = th.ID()
		name = th.Name()
		if th.Machine() != m {
			t.Error("Machine() mismatch")
		}
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if id != 1 || name != "alice" {
		t.Fatalf("id=%d name=%q", id, name)
	}
}

func TestLockContentionBetweenRMWs(t *testing.T) {
	// Many threads CASing the same word: the memory lock serializes
	// them; all succeed exactly once with distinct old values.
	const threads = 5
	m := New(Config{Policy: DrainRandom, Seed: 11})
	a := m.AllocWords(1)
	olds := make([]Word, threads)
	for i := 0; i < threads; i++ {
		m.Spawn("inc", func(th *Thread) {
			olds[th.ID()] = th.FetchAdd(a, 1)
		})
	}
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	seen := map[Word]bool{}
	for _, o := range olds {
		if seen[o] {
			t.Fatalf("duplicate old value %d — RMWs not serialized", o)
		}
		seen[o] = true
	}
	if m.PeekWord(a) != threads {
		t.Fatalf("final = %d", m.PeekWord(a))
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []DrainPolicy{DrainEager, DrainRandom, DrainAdversarial, DrainPolicy(9)} {
		if p.String() == "" {
			t.Fatalf("empty name for policy %d", int(p))
		}
	}
	for _, k := range []EventKind{EvStore, EvCommit, EvLoad, EvRMW, EvFence, EventKind(9)} {
		if k.String() == "" {
			t.Fatalf("empty name for kind %d", int(k))
		}
	}
	e := Event{Tick: 3, Thread: 1, Kind: EvStore, Addr: 5, Val: 7}
	if e.String() == "" || (Event{Kind: EvFence}).String() == "" {
		t.Fatal("event rendering broken")
	}
}
