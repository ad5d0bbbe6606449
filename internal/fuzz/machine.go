package fuzz

import (
	"fmt"

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
// plus compiled-program and register scratch, reused across every run
// of a campaign. A Sampler executes checker programs on the machine's
// direct-execution engine (tso.ExecProgram) — no goroutines, no
// channels, zero steady-state allocation — and is the hot path of
// fuzz campaigns and the sim benchmark figure. Not safe for concurrent
// use; the parallel campaign driver gives each worker its own.
type Sampler struct {
	m    *tso.Machine
	prog tso.Prog
	ops  []tso.ProgOp // backing storage for prog.Threads
	regs [][]tso.Word
	ints [][]int
	buf  []byte // outcome formatting scratch
}

// NewSampler returns an empty sampler; the first Run sizes it.
func NewSampler() *Sampler {
	return &Sampler{m: tso.New(tso.Config{})}
}

// compile translates p into the machine's program vocabulary with
// variable v at machine address base+v, reusing the sampler's op
// storage. The mapping mirrors RunOnMachineGoroutine's Thread calls
// op for op: St → Store, Ld → Load, Fence → Fence, RMW(a,v,r) →
// FetchAdd (old value into r), Wait(n) → an n-tick clock-polling wait.
func (s *Sampler) compile(p mc.Program, base tso.Addr) {
	total := 0
	for _, th := range p.Threads {
		total += len(th)
	}
	if cap(s.ops) >= total {
		s.ops = s.ops[:total]
	} else {
		s.ops = make([]tso.ProgOp, total)
	}
	if cap(s.prog.Threads) >= len(p.Threads) {
		s.prog.Threads = s.prog.Threads[:len(p.Threads)]
	} else {
		s.prog.Threads = make([][]tso.ProgOp, len(p.Threads))
	}
	next := 0
	for ti, th := range p.Threads {
		start := next
		for _, op := range th {
			po := tso.ProgOp{}
			switch op.Kind {
			case mc.OpStore:
				po = tso.ProgOp{Kind: tso.POpStore, Addr: base + tso.Addr(op.Addr), Val: tso.Word(op.Val)}
			case mc.OpLoad:
				po = tso.ProgOp{Kind: tso.POpLoad, Addr: base + tso.Addr(op.Addr), Reg: op.Reg}
			case mc.OpFence:
				po = tso.ProgOp{Kind: tso.POpFence}
			case mc.OpRMW:
				po = tso.ProgOp{Kind: tso.POpRMW, Addr: base + tso.Addr(op.Addr), Val: tso.Word(op.Val), Reg: op.Reg}
			case mc.OpWait:
				po = tso.ProgOp{Kind: tso.POpWait, Val: tso.Word(op.Val)}
			}
			s.ops[next] = po
			next++
		}
		s.prog.Threads[ti] = s.ops[start:next:next]
	}
}

// sizeResults (re)dimensions the register scratch for p.
func (s *Sampler) sizeResults(p mc.Program) {
	for len(s.regs) < len(p.Threads) {
		s.regs = append(s.regs, nil)
		s.ints = append(s.ints, nil)
	}
	for th := 0; th < len(p.Threads); th++ {
		if cap(s.regs[th]) >= p.Regs {
			s.regs[th] = s.regs[th][:p.Regs]
		} else {
			s.regs[th] = make([]tso.Word, p.Regs)
		}
		if cap(s.ints[th]) >= p.Regs {
			s.ints[th] = s.ints[th][:p.Regs]
		} else {
			s.ints[th] = make([]int, p.Regs)
		}
		for r := 0; r < p.Regs; r++ {
			s.regs[th][r] = 0
		}
	}
}

// Sample executes p once on the direct-execution engine under run's
// campaign configuration and returns the outcome in the checker's
// canonical "T0:r0=1 T1:r0=0" form plus the machine's Result (Stats,
// ticks). Optional sinks stream the machine's events exactly as on the
// goroutine engine.
func (s *Sampler) Sample(p mc.Program, run MachineRun, sinks ...tso.Sink) (string, tso.Result, error) {
	return s.Exec(p, machineConfig(run, sinks))
}

// Exec is Sample under an arbitrary machine configuration, such as the
// litmus runner's: default drain margin, stall probability, tick cap.
func (s *Sampler) Exec(p mc.Program, cfg tso.Config) (string, tso.Result, error) {
	s.m.Reset(cfg)
	base := s.m.AllocWords(p.Vars)
	s.compile(p, base)
	s.sizeResults(p)
	res := s.m.ExecProgram(s.prog, s.regs)
	if res.Err != nil {
		return "", res, res.Err
	}
	for th := 0; th < len(p.Threads); th++ {
		for r := 0; r < p.Regs; r++ {
			s.ints[th][r] = int(s.regs[th][r])
		}
	}
	s.buf = mc.AppendOutcome(s.buf[:0], s.ints[:len(p.Threads)])
	return string(s.buf), res, nil
}

// Trace returns the last run's execution trace (empty unless its
// configuration set Trace).
func (s *Sampler) Trace() []tso.Event { return s.m.Trace() }

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
