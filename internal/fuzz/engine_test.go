package fuzz

import (
	"reflect"
	"testing"

	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

// recSink records the full observable surface of a machine run: the
// BeginRun call and every emitted event, in order.
type recSink struct {
	names  []string
	delta  uint64
	events []tso.Event
}

func (r *recSink) BeginRun(names []string, delta uint64) {
	r.names = append([]string(nil), names...)
	r.delta = delta
}

func (r *recSink) Emit(e tso.Event) { r.events = append(r.events, e) }

// TestEngineEquivalence is the differential gate for the
// direct-execution engine: over a corpus of generated programs swept
// across Δ, drain policy and scheduler seed, the interpreter and the
// goroutine engine must produce byte-identical outcomes, identical
// Result Ticks and Stats (DrainStats included), and identical sink
// event streams. Both engines consume the seeded RNG in lockstep
// (docs/PERF.md documents the draw stream), so any divergence is a
// scheduler-visible bug, not noise.
func TestEngineEquivalence(t *testing.T) {
	const programs = 200
	deltas := []uint64{0, 1, 3}
	policies := []tso.DrainPolicy{tso.DrainEager, tso.DrainRandom, tso.DrainAdversarial}

	s := NewSampler() // one sampler for the whole corpus: also exercises Reset reuse
	cases, diverged := 0, 0
	for seed := int64(1); seed <= programs; seed++ {
		p := Gen(GenConfig{}, seed)
		for _, d := range deltas {
			for pi, pol := range policies {
				run := MachineRun{Delta: d, Policy: pol, Seed: seed*31 + int64(pi)}
				cases++

				var sinkI, sinkG recSink
				outI, resI, errI := s.Sample(p, run, &sinkI)
				outG, resG, errG := RunOnMachineGoroutine(p, run, &sinkG)
				if errI != nil || errG != nil {
					t.Fatalf("seed=%d Δ=%d policy=%v: interp err=%v goroutine err=%v", seed, d, pol, errI, errG)
				}
				ok := outI == outG &&
					resI.Ticks == resG.Ticks &&
					resI.Stats == resG.Stats &&
					sinkI.delta == sinkG.delta &&
					reflect.DeepEqual(sinkI.names, sinkG.names) &&
					reflect.DeepEqual(sinkI.events, sinkG.events)
				if !ok {
					diverged++
					if diverged <= 3 {
						t.Errorf("engines diverge at seed=%d Δ=%d policy=%v machSeed=%d:\n interp:    %q ticks=%d stats=%+v events=%d\n goroutine: %q ticks=%d stats=%+v events=%d",
							seed, d, pol, run.Seed,
							outI, resI.Ticks, resI.Stats, len(sinkI.events),
							outG, resG.Ticks, resG.Stats, len(sinkG.events))
					}
				}
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%d/%d cases diverged", diverged, cases)
	}
	t.Logf("%d cases byte-identical across engines", cases)
}

// TestEngineEquivalenceStall extends the lockstep claim to nonzero
// StallProb, where the scheduler draws a Float64 per grant attempt —
// the draw the skip-gate documentation says only fires when enabled.
func TestEngineEquivalenceStall(t *testing.T) {
	s := NewSampler()
	for seed := int64(1); seed <= 30; seed++ {
		p := Gen(GenConfig{}, seed)
		cfg := tso.Config{Delta: 4, Policy: tso.DrainRandom, Seed: seed, StallProb: 0.3}

		outI, resI, err := s.Exec(p, cfg)
		if err != nil {
			t.Fatalf("seed=%d: interp err=%v", seed, err)
		}

		m := tso.New(cfg)
		gbase := m.AllocWords(p.Vars)
		results := make([][]int, len(p.Threads))
		for th := range p.Threads {
			ops := p.Threads[th]
			results[th] = make([]int, p.Regs)
			m.Spawn("T", func(tt *tso.Thread) {
				me := results[tt.ID()]
				for _, op := range ops {
					switch op.Kind {
					case mc.OpStore:
						tt.Store(gbase+tso.Addr(op.Addr), tso.Word(op.Val))
					case mc.OpLoad:
						me[op.Reg] = int(tt.Load(gbase + tso.Addr(op.Addr)))
					case mc.OpFence:
						tt.Fence()
					case mc.OpRMW:
						me[op.Reg] = int(tt.FetchAdd(gbase+tso.Addr(op.Addr), tso.Word(op.Val)))
					case mc.OpWait:
						tt.WaitUntil(tt.Clock() + uint64(op.Val))
					}
				}
			})
		}
		resG := m.Run()
		if resG.Err != nil {
			t.Fatalf("seed=%d: goroutine err=%v", seed, resG.Err)
		}
		outG := mc.FormatOutcome(results)

		if outI != outG || resI.Ticks != resG.Ticks || resI.Stats != resG.Stats {
			t.Fatalf("seed=%d: interp %q ticks=%d vs goroutine %q ticks=%d", seed, outI, resI.Ticks, outG, resG.Ticks)
		}
	}
}

// TestRunWorkerCountInvariance pins the parallel campaign driver's
// determinism claim: the merged Report is identical whatever the
// worker count, because cell (seed, Δ)'s report depends only on
// (cfg, seed, Δ) and Stream assembles each program's report from its
// cells in Δ order — exactly the report checkProgram returns, mismatches
// in (seed, Δ) order. Planted mismatches at every Δ make that order
// visible.
func TestRunWorkerCountInvariance(t *testing.T) {
	withSampler(t, func() sampler { return plantingSampler{NewSampler()} })
	base := Config{MachSeeds: 2, MaxStates: 50_000, CrossCheckStates: -1}.orDefault()
	const n, startSeed = 24, 100

	var want Report
	s, x := newSampler(), new(explorers)
	for seed := int64(startSeed); seed < startSeed+n; seed++ {
		rep, complete := checkProgram(nil, base, s, x, nil, Gen(base.Gen, seed), seed)
		if !complete {
			t.Fatalf("seed %d: check cut short", seed)
		}
		want.Add(rep)
	}
	deltas := map[int]bool{}
	for _, m := range want.Mismatches {
		deltas[m.Delta] = true
	}
	if len(deltas) != len(base.Deltas) {
		t.Fatalf("planted mismatches at Δs %v, want at each of %v", deltas, base.Deltas)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		got := Run(cfg, n, startSeed)
		if !reflect.DeepEqual(want, got) {
			i := 0
			for i < min(len(want.Mismatches), len(got.Mismatches)) && reflect.DeepEqual(want.Mismatches[i], got.Mismatches[i]) {
				i++
			}
			t.Fatalf("Workers=%d report differs from checkProgram's in seed order: %d and %d mismatches, first difference at %d; coverage equal: %v",
				workers, len(want.Mismatches), len(got.Mismatches), i, reflect.DeepEqual(want.Coverage, got.Coverage))
		}
	}
}
