package fuzz

import (
	"errors"
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
// every sampled run replays as a path, and only the sweep explores.
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
	if st.WitnessedChecks != runs {
		t.Errorf("%d runs witnessed, want every run (%d)", st.WitnessedChecks, runs)
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
	if got := res.Stats.Drains[tso.CauseFinal]; got != 1 {
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

func (l lyingSampler) sample(_ mc.Program, run MachineRun, sinks ...tso.Sink) ([]byte, tso.Result, error) {
	return l.Sampler.sample(l.machine, run, sinks...)
}

func (l lyingSampler) sampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) ([]byte, tso.Result, bool, error) {
	out, res, _, err := l.Sampler.sampleWitness(l.machine, run, cover, sinks...)
	return out, res, err == nil && l.witness(p, cover, out, res.Ticks), err
}

// TestCheckProgramFlagsImpossibleOutcomeAboveZero is the Δ > 0 side of
// TestCheckProgramFlagsImpossibleOutcome: the machine stores 2 where the
// checked program stores 1, so no run is a path of that program. Every
// run is flagged, and only the sweep explores.
func TestCheckProgramFlagsImpossibleOutcomeAboveZero(t *testing.T) {
	machine := mc.Program{Threads: [][]mc.Op{{mc.St(0, 2), mc.Ld(0, 0)}}, Vars: 1, Regs: 1}
	checker := mc.Program{Threads: [][]mc.Op{{mc.St(0, 1), mc.Ld(0, 0)}}, Vars: 1, Regs: 1}
	for _, delta := range []int{0, 2} {
		cfg := Config{Deltas: []int{delta}, MachSeeds: 2}.orDefault()
		rep, complete := checkProgram(nil, cfg, lyingSampler{NewSampler(), machine}, new(explorers), nil, checker, 7)
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
		st := rep.Coverage.MC
		if got := st.Explorations + st.Truncated; got != 1 {
			t.Errorf("Δ=%d: %d explorations, want the sweep's only", delta, got)
		}
	}
}

// TestCheckProgramFlagsUnreplayableRun: above Δ 0 the replay is the
// verdict. The machine fences where the checked program does not, so
// no run is a path of that program, yet every run's outcome T0:r0=1 is
// in the program's outcome set at every Δ. Δ 0 judges by that set and
// flags nothing; Δ 2 flags every run.
func TestCheckProgramFlagsUnreplayableRun(t *testing.T) {
	machine := mc.Program{Threads: [][]mc.Op{{mc.St(0, 1), mc.Fence(), mc.Ld(0, 0)}}, Vars: 1, Regs: 1}
	checker := mc.Program{Threads: [][]mc.Op{{mc.St(0, 1), mc.Ld(0, 0)}}, Vars: 1, Regs: 1}
	for _, delta := range []int{0, 2} {
		cfg := Config{Deltas: []int{delta}, MachSeeds: 2}.orDefault()
		rep, complete := checkProgram(nil, cfg, lyingSampler{NewSampler(), machine}, new(explorers), nil, checker, 7)
		if !complete || rep.Coverage.Runs != 6 {
			t.Fatalf("Δ=%d: complete %v after %d runs, want 6", delta, complete, rep.Coverage.Runs)
		}
		want := 0
		if delta > 0 {
			want = 6
		}
		if len(rep.Mismatches) != want {
			t.Fatalf("Δ=%d: %d mismatches, want %d: %v", delta, len(rep.Mismatches), want, rep.Mismatches)
		}
		for _, m := range rep.Mismatches {
			if m.Kind != KindSampledOutcome || m.Outcome != "T0:r0=1" || m.Cover != CoverDelta(checker, 2) || m.Schedule == nil {
				t.Fatalf("got %v, want a sampled-outcome mismatch on T0:r0=1 at the cover with its schedule", m)
			}
		}
		if st := rep.Coverage.MC; st.WitnessedChecks != 0 || st.Explorations != 1 {
			t.Errorf("Δ=%d: %d witnessed, %d explorations; want 0, 1", delta, st.WitnessedChecks, st.Explorations)
		}
	}
}

// badRunSampler misbehaves on the one machine run bad: it faults there
// when fault is set, and otherwise runs lie's machine program.
type badRunSampler struct {
	*Sampler
	bad   MachineRun
	lie   lyingSampler
	fault error
}

func (b badRunSampler) sample(p mc.Program, run MachineRun, sinks ...tso.Sink) ([]byte, tso.Result, error) {
	switch {
	case run != b.bad:
		return b.Sampler.sample(p, run, sinks...)
	case b.fault != nil:
		return nil, tso.Result{}, b.fault
	}
	return b.lie.sample(p, run, sinks...)
}

func (b badRunSampler) sampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) ([]byte, tso.Result, bool, error) {
	switch {
	case run != b.bad:
		return b.Sampler.sampleWitness(p, run, cover, sinks...)
	case b.fault != nil:
		return nil, tso.Result{}, false, b.fault
	}
	return b.lie.sampleWitness(p, run, cover, sinks...)
}

// TestReplayRepeatsTheRecordedRun: a sampled-outcome artifact replays
// exactly its recorded run, here under policy index 2 at machine-seed
// index 4, past the default MachSeeds, and reproduces only as a
// mismatch of its own kind: the same run faulting is not a repeat.
func TestReplayRepeatsTheRecordedRun(t *testing.T) {
	machine := mc.Program{Threads: [][]mc.Op{{mc.St(0, 2), mc.Ld(0, 0)}}, Vars: 1, Regs: 1}
	checker := mc.Program{Threads: [][]mc.Op{{mc.St(0, 1), mc.Ld(0, 0)}}, Vars: 1, Regs: 1}
	const seed = 7
	bad := Schedule{Policy: tso.DrainAdversarial, MachSeed: seed*1000003 + 2*101 + 4}
	good := Schedule{Policy: tso.DrainAdversarial, MachSeed: bad.MachSeed - 1}
	for _, delta := range []int{0, 1} {
		s := badRunSampler{Sampler: NewSampler(), bad: bad.Run(delta), lie: lyingSampler{NewSampler(), machine}}
		a := Artifact{Mismatch: Mismatch{Kind: KindSampledOutcome, Seed: seed, Delta: delta,
			Cover: CoverDelta(checker, MachineDelta(delta)), Program: checker}}
		for _, c := range []struct {
			sched *Schedule
			fault error
			want  bool
		}{
			{&bad, nil, true},
			{&good, nil, false},
			{&bad, errors.New("injected fault"), false},
		} {
			a.Schedule, s.fault = c.sched, c.fault
			if got, err := a.replay(s); got != c.want || err != nil {
				t.Errorf("Δ=%d %v (fault %v): reproduced %v, err %v; want %v", delta, c.sched, c.fault, got, err, c.want)
			}
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
