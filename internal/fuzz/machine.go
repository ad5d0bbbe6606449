package fuzz

import (
	"fmt"
	"slices"

	"tbtso/internal/mc"
	"tbtso/internal/obs"
	"tbtso/internal/tso"
)

// MachineRun names one sampled execution of a program on the clocked
// abstract machine: the machine's Δ in ticks, the drain policy, and the
// scheduler seed. Together with the program it is the full replay
// recipe for a sampled outcome.
type MachineRun struct {
	Delta  uint64
	Policy tso.DrainPolicy
	Seed   int64
}

// MachineDelta maps a fuzz sweep Δ (checker transitions) to the
// machine's Δ (ticks): the identity, with 0 meaning unbounded on both
// sides. The two units differ — CoverDelta is what makes the
// containment check sound despite that.
func MachineDelta(delta int) uint64 { return uint64(delta) }

// CoverDelta returns a checker Δ (in transitions) that provably admits
// every behaviour of the clocked machine running p at machDelta ticks.
//
// The argument: the machine executes at most one action per thread per
// tick (ParallelDrains off), and every machine action that changes
// model-visible state — store, load, fence completion, RMW, dequeue,
// or a wait-loop clock read — maps to at most one checker transition.
// A store enqueued at tick t is committed by tick t+machDelta (the
// machine's commit-time check enforces this), so at most
// (machDelta+1)·threads transitions separate its enqueue from its
// commit; the checker's ageing starts the entry at age 1, so a bound of
// (machDelta+1)·threads + 2 slack can never force a dequeue the
// machine performed later. Larger checker Δ only ADDS admissible
// behaviours, so the machine's sample set is contained in the cover
// exploration's outcome set whenever both models are correct.
// machDelta = 0 (unbounded TSO) covers exactly at checker Δ = 0.
func CoverDelta(p mc.Program, machDelta uint64) int {
	if machDelta == 0 {
		return 0
	}
	return int(machDelta+1)*len(p.Threads) + 2
}

// machineConfig is the machine configuration every sampled run uses,
// on either engine — keeping the two construction sites identical is
// part of the engine-equivalence argument (docs/PERF.md).
func machineConfig(run MachineRun, sinks []tso.Sink) tso.Config {
	cfg := tso.Config{
		Delta:  run.Delta,
		Policy: run.Policy,
		Seed:   run.Seed,
		Sinks:  sinks,
	}
	if run.Delta > 0 {
		// Force dequeues as late as the bound allows (margin 1) so
		// small Δ actually exercises buffering; the default margin of
		// 16 would make Δ ≤ 16 behave like an eager write-through
		// machine. Forced drains ignore the memory lock, so a margin
		// of 1 cannot overrun the bound.
		cfg.DrainMargin = 1
	}
	return cfg
}

// Sampler is a reusable direct-execution context: one clocked machine
// plus register scratch, reused across every run of a campaign. A
// Sampler executes checker programs on the machine's direct-execution
// engine (tso.ExecProgram) — no goroutines, no channels, zero
// steady-state allocation — and is the hot path of fuzz campaigns. Not
// safe for concurrent use; the parallel campaign driver gives each
// worker its own.
type Sampler struct {
	m    *tso.Machine
	base tso.Addr // machine address of the last run's variable 0
	regs [][]int
	buf  []byte // outcome formatting scratch

	// Witness scratch: the run's events and sinks, the path, the last
	// tick each thread acted, the threads with a Wait.
	rec   tso.Recorder
	sinks []tso.Sink
	steps []mc.Step
	acted []uint64
	waits []int
	path  mc.PathChecker
}

// NewSampler returns an empty sampler; the first Run sizes it.
func NewSampler() *Sampler {
	return &Sampler{m: tso.New(tso.Config{})}
}

// results returns the sampler's register scratch sized and zeroed for p.
func (s *Sampler) results(p mc.Program) [][]int {
	for len(s.regs) < len(p.Threads) {
		s.regs = append(s.regs, nil)
	}
	regs := s.regs[:len(p.Threads)]
	for th := range regs {
		regs[th] = slices.Grow(regs[th][:0], p.Regs)[:p.Regs]
		clear(regs[th])
	}
	return regs
}

// Sample executes p once on the direct-execution engine under run's
// campaign configuration and returns the outcome in the checker's
// canonical "T0:r0=1 T1:r0=0" form plus the machine's Result (Stats,
// ticks). Optional sinks stream the machine's events exactly as on the
// goroutine engine.
func (s *Sampler) Sample(p mc.Program, run MachineRun, sinks ...tso.Sink) (string, tso.Result, error) {
	out, res, err := s.sample(p, run, sinks...)
	return string(out), res, err
}

// sample is Sample with the outcome left in the sampler's scratch,
// valid until its next run.
func (s *Sampler) sample(p mc.Program, run MachineRun, sinks ...tso.Sink) ([]byte, tso.Result, error) {
	return s.exec(p, machineConfig(run, sinks))
}

// Exec is Sample under an arbitrary machine configuration, such as the
// litmus runner's: default drain margin, stall probability, tick cap.
func (s *Sampler) Exec(p mc.Program, cfg tso.Config) (string, tso.Result, error) {
	out, res, err := s.exec(p, cfg)
	return string(out), res, err
}

// exec is Exec with the outcome left in the sampler's scratch (nil on
// a fault).
func (s *Sampler) exec(p mc.Program, cfg tso.Config) ([]byte, tso.Result, error) {
	s.m.Reset(cfg)
	s.base = s.m.AllocWords(p.Vars)
	regs := s.results(p)
	res := s.m.ExecProgram(p, s.base, regs)
	if res.Err != nil {
		return nil, res, res.Err
	}
	s.buf = mc.AppendOutcome(s.buf[:0], regs)
	return s.buf, res, nil
}

// SampleWitness is Sample plus a containment verdict that needs no
// exploration: witnessed reports that the run, read as a path of the
// checker at cover (docs/FUZZ.md, "The covering Δ"), reaches outcome.
// false proves nothing.
func (s *Sampler) SampleWitness(p mc.Program, run MachineRun, cover int, sinks ...tso.Sink) (outcome string, res tso.Result, witnessed bool, err error) {
	s.rec.Events = s.rec.Events[:0]
	s.sinks = append(append(s.sinks[:0], sinks...), &s.rec)
	outcome, res, err = s.Sample(p, run, s.sinks...)
	if err != nil {
		return outcome, res, false, err
	}
	return outcome, res, s.witness(p, cover, outcome, res.Ticks), nil
}

// stepKinds maps the op events to checker op kinds.
var stepKinds = [...]mc.OpKind{tso.EvStore: mc.OpStore, tso.EvLoad: mc.OpLoad, tso.EvRMW: mc.OpRMW, tso.EvFence: mc.OpFence}

// witness checks the recorded run as a path at cover. Each event is a
// step: a commit dequeues the thread's oldest entry, any other event is
// its next op. A Wait's clock reads leave no event; without stalls
// (machineConfig) they fall on exactly the ticks at which the thread
// has none, since a tick in which it drained grants it nothing else. So
// each eventless tick of a thread with a Wait is an idle step. The final
// flush follows the last tick.
func (s *Sampler) witness(p mc.Program, cover int, outcome string, ticks uint64) bool {
	s.waits = s.waits[:0]
	for i, th := range p.Threads {
		if slices.ContainsFunc(th, func(op mc.Op) bool { return op.Kind == mc.OpWait }) {
			s.waits = append(s.waits, i)
		}
	}
	s.acted = slices.Grow(s.acted[:0], len(p.Threads))[:len(p.Threads)]
	clear(s.acted)
	steps, ev, k := s.steps[:0], s.rec.Events, 0
	for t := uint64(1); t <= ticks; t++ {
		for ; k < len(ev) && ev[k].Tick == t && ev[k].Cause != tso.CauseFinal; k++ {
			s.acted[ev[k].Thread] = t
			steps = append(steps, s.pathStep(ev[k]))
		}
		for _, i := range s.waits {
			if s.acted[i] != t {
				steps = append(steps, mc.Step{Thread: i, Kind: mc.OpWait})
			}
		}
	}
	for ; k < len(ev); k++ {
		steps = append(steps, s.pathStep(ev[k]))
	}
	s.steps = steps
	return s.path.Check(p, cover, steps, outcome)
}

// pathStep is the checker step of one event, its address relative to
// the run's base.
func (s *Sampler) pathStep(e tso.Event) mc.Step {
	return mc.Step{Thread: e.Thread, Dequeue: e.Kind == tso.EvCommit, Kind: stepKinds[e.Kind],
		Addr: int(e.Addr - s.base), Val: int(e.Val), FromBuf: e.FromBuf}
}

// RunOnMachine executes p once on the clocked abstract machine under
// run's configuration and returns the outcome in the checker's
// canonical form. It uses the direct-execution engine; campaigns that
// sample many programs should hold a Sampler and call Sample to reuse
// the machine. Optional sinks stream the machine's events (e.g. an
// obs.Perfetto exporter building a failure trace).
func RunOnMachine(p mc.Program, run MachineRun, sinks ...tso.Sink) (string, error) {
	out, _, err := NewSampler().Sample(p, run, sinks...)
	return out, err
}

// TraceRun replays run on p with a Perfetto exporter attached and
// returns it. The machine announces the run (process and thread names)
// to the exporter itself; when the run fails, the exporter holds the
// events up to the failure and the error is returned alongside.
func TraceRun(p mc.Program, run MachineRun) (*obs.Perfetto, error) {
	pf := obs.NewPerfetto()
	_, err := RunOnMachine(p, run, pf)
	return pf, err
}

// RunOnMachineGoroutine executes p on the goroutine engine — each
// thread a Go closure issuing Thread-handle calls — and returns the
// outcome plus the machine Result. It is the oracle the
// direct-execution engine is differentially pinned against
// (TestEngineEquivalence): same (program, run), byte-identical
// outcome, Stats and event stream.
func RunOnMachineGoroutine(p mc.Program, run MachineRun, sinks ...tso.Sink) (string, tso.Result, error) {
	m := tso.New(machineConfig(run, sinks))
	base := m.AllocWords(p.Vars)

	results := make([][]int, len(p.Threads))
	for th := range p.Threads {
		ops := p.Threads[th]
		results[th] = make([]int, p.Regs)
		//tbtso:ignore escape results is the harness's per-thread outcome capture (indexed by th.ID(), one writer each), read only after Machine.Run returns — not algorithm memory
		m.Spawn(fmt.Sprintf("T%d", th), func(t *tso.Thread) {
			me := results[t.ID()]
			for _, op := range ops {
				switch op.Kind {
				case mc.OpStore:
					t.Store(base+tso.Addr(op.Addr), tso.Word(op.Val))
				case mc.OpLoad:
					me[op.Reg] = int(t.Load(base + tso.Addr(op.Addr)))
				case mc.OpFence:
					t.Fence()
				case mc.OpRMW:
					me[op.Reg] = int(t.FetchAdd(base+tso.Addr(op.Addr), tso.Word(op.Val)))
				case mc.OpWait:
					t.WaitUntil(t.Clock() + uint64(op.Val))
				}
			}
		})
	}
	res := m.Run()
	if res.Err != nil {
		return "", res, res.Err
	}
	return mc.FormatOutcome(results), res, nil
}
