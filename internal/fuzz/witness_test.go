package fuzz

import (
	"testing"

	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

// TestWitnessSound replays sampled runs of the default generator at
// sweep Δ 1 and 3 as paths at the covering Δ, and checks every outcome
// a path witnesses against the complete covering-Δ exploration: a
// witness must never admit an outcome the checker's set lacks.
func TestWitnessSound(t *testing.T) {
	programs := int64(400)
	if testing.Short() || raceEnabled {
		programs = 100
	}
	cfg := Config{}.orDefault()
	s := NewSampler()
	replays, failed := 0, 0
	for seed := int64(1); seed <= programs; seed++ {
		p := Gen(cfg.Gen, seed)
		for _, delta := range []int{1, 3} {
			cover := CoverDelta(p, MachineDelta(delta))
			set, err := mc.ExploreParallel(p, cover, mc.Options{MaxStates: cfg.MaxStates})
			if err != nil {
				continue // truncated: no complete set to compare with
			}
			for pi, pol := range cfg.Policies {
				for i := 0; i < cfg.MachSeeds; i++ {
					run := MachineRun{Delta: MachineDelta(delta), Policy: pol, Seed: seed*1000003 + int64(pi)*101 + int64(i)}
					outcome, _, witnessed, err := s.SampleWitness(p, run, cover)
					if err != nil {
						t.Fatalf("seed %d Δ=%d %v: %v", seed, delta, run, err)
					}
					replays++
					if !witnessed {
						failed++
						continue
					}
					if !set.Has(outcome) {
						t.Fatalf("seed %d Δ=%d %v: witnessed %q outside the covering set %v", seed, delta, run, outcome, set.List())
					}
				}
			}
		}
	}
	if failed != 0 {
		t.Errorf("%d of %d replays failed", failed, replays)
	}
	t.Logf("%d replays checked against the covering set", replays)
}

// TestRunWitnessesEveryRun pins the default corpus: at sweep Δ 1 and 3
// every sampled run replays as a path, so no covering exploration runs
// and none truncates.
func TestRunWitnessesEveryRun(t *testing.T) {
	programs := 400
	if testing.Short() || raceEnabled {
		programs = 100
	}
	rep := Run(Config{Deltas: []int{1, 3}}, programs, 1)
	runs, st := rep.Coverage.Runs, rep.Coverage.MC
	if len(rep.Mismatches) != 0 || st.Truncated != 0 {
		t.Fatalf("%d mismatches, %d truncated; first mismatch %v", len(rep.Mismatches), st.Truncated, rep.Mismatches)
	}
	if st.ReplayFailed != 0 {
		t.Errorf("%d failed replays, want 0", st.ReplayFailed)
	}
	if st.WitnessedChecks != runs || st.ExploredChecks != 0 {
		t.Errorf("coverage containment checks: %d witnessed, %d explored; want every run (%d), 0", st.WitnessedChecks, st.ExploredChecks, runs)
	}
	if got := st.Explorations + st.Truncated; got != uint64(2*programs) {
		t.Errorf("%d explorations, want the %d sweep explorations only", got, 2*programs)
	}
}

// TestWitnessFinalFlushAfterWait: a thread whose last op is a Wait
// advances on the run's last tick, the tick the final flush's commits
// also carry. The flush must not hide that advance.
func TestWitnessFinalFlushAfterWait(t *testing.T) {
	p := mc.Program{Threads: [][]mc.Op{{mc.St(0, 1), mc.Wait(1)}}, Vars: 1, Regs: 1}
	run := MachineRun{Delta: 8, Policy: tso.DrainAdversarial, Seed: 1}
	s := NewSampler()
	_, res, witnessed, err := s.SampleWitness(p, run, CoverDelta(p, run.Delta))
	if err != nil || !witnessed {
		t.Fatalf("witnessed %v, err %v", witnessed, err)
	}
	if got := res.Stats.Drains.ByCause(tso.CauseFinal); got != 1 {
		t.Fatalf("test premise broken: %d final-flush commits, want 1", got)
	}
}

// lyingSampler runs machine in place of the program under check, so
// its runs are neither paths of that program nor, in general, inside its
// outcome set.
type lyingSampler struct {
	*Sampler
	machine mc.Program
}

func (l lyingSampler) Sample(_ mc.Program, run MachineRun, sinks ...tso.Sink) (string, tso.Result, error) {
	return l.Sampler.Sample(l.machine, run, sinks...)
}

func (l lyingSampler) SampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) (string, tso.Result, bool, error) {
	outcome, res, _, err := l.Sampler.SampleWitness(l.machine, run, cover, sinks...)
	return outcome, res, err == nil && l.witness(p, cover, outcome, res.Ticks), err
}

// TestCheckProgramFlagsImpossibleOutcomeAboveZero is the Δ > 0 side of
// TestCheckProgramFlagsImpossibleOutcome: the machine stores 2 where the
// checked program stores 1, so its first run is no path of that
// program. The check falls back to the covering exploration, runs it
// once, and flags every sampled outcome it lacks.
func TestCheckProgramFlagsImpossibleOutcomeAboveZero(t *testing.T) {
	machine := mc.Program{Threads: [][]mc.Op{{mc.St(0, 2), mc.Ld(0, 0)}}, Vars: 1, Regs: 1}
	checker := mc.Program{Threads: [][]mc.Op{{mc.St(0, 1), mc.Ld(0, 0)}}, Vars: 1, Regs: 1}
	for _, delta := range []int{0, 2} {
		cfg := Config{Deltas: []int{delta}, MachSeeds: 2}.orDefault()
		rep, complete := checkProgram(nil, cfg, lyingSampler{NewSampler(), machine}, nil, checker, 7)
		if !complete {
			t.Fatalf("Δ=%d: check cut short", delta)
		}
		if runs := rep.Coverage.Runs; uint64(len(rep.Mismatches)) != runs || runs != 6 {
			t.Fatalf("Δ=%d: %d mismatches over %d runs, want one per run", delta, len(rep.Mismatches), runs)
		}
		for _, m := range rep.Mismatches {
			if m.Kind != KindSampledOutcome || m.Outcome != "T0:r0=2" {
				t.Fatalf("Δ=%d: got %v, want a sampled-outcome mismatch on T0:r0=2", delta, m)
			}
		}
		wantExplorations, wantFailed := uint64(1), uint64(0)
		if delta > 0 {
			wantExplorations, wantFailed = 2, 1 // the sweep, then the cover once
		}
		st := rep.Coverage.MC
		if got := st.Explorations + st.Truncated; got != wantExplorations {
			t.Errorf("Δ=%d: %d explorations, want %d", delta, got, wantExplorations)
		}
		if st.ReplayFailed != wantFailed {
			t.Errorf("Δ=%d: %d failed replays, want %d", delta, st.ReplayFailed, wantFailed)
		}
	}
}

// TestSampleWitnessAllocs pins the witnessed sampling path beside
// TestSampleAllocs: replaying the run as a path adds no allocation to
// the outcome string Sample already returns.
func TestSampleWitnessAllocs(t *testing.T) {
	p := mc.Program{
		Threads: [][]mc.Op{
			{mc.St(0, 1), mc.Wait(2), mc.Ld(1, 0), mc.RMW(0, 1, 1)},
			{mc.St(1, 1), mc.Fence(), mc.Ld(0, 0)},
		},
		Vars: 2, Regs: 2,
	}
	s := NewSampler()
	for _, delta := range []uint64{1, 3} {
		run := MachineRun{Delta: delta, Policy: tso.DrainRandom, Seed: 7}
		cover := CoverDelta(p, delta)
		sample := func() {
			if _, _, ok, err := s.SampleWitness(p, run, cover); err != nil || !ok {
				t.Fatalf("Δ=%d: witnessed %v, err %v", delta, ok, err)
			}
		}
		sample() // warm-up: size the machine, recorder and path scratch
		if allocs := testing.AllocsPerRun(100, sample); allocs > 1 {
			t.Fatalf("Δ=%d: %v allocs per SampleWitness, want at most 1 (the outcome string)", delta, allocs)
		}
	}
}
