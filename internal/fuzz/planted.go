package fuzz

import (
	"fmt"

	"tbtso/internal/machalg"
	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

// KindFlagViolation tags planted-control artifacts: the checker's
// exhaustive set admits a flag-principle violation witness (see
// FlagViolation). Unlike the differential kinds this is an ALGORITHM
// property failure — both models agree, and the program's
// synchronization is what's broken.
const KindFlagViolation = "flag-violation"

// Planted is a known-bad negative control: a program from the paper's
// algorithm suite configured so the flag-principle violation is REAL
// (plain TSO, or a wait shorter than the bound). The fuzzer's
// end-to-end validation is that it finds the violation and shrinks it
// to a litmus-sized witness.
type Planted struct {
	Name    string
	Program mc.Program
	Delta   int // sweep Δ the violation manifests at
}

// PlantedControls returns the negative controls, mirroring the
// violation cases machalg's own exhaustive tests assert:
//
//   - ffhp-tso: fence-free hazard pointers under PLAIN TSO (Δ=0) — the
//     unfenced protect store hides in the buffer past the reclaimer's
//     scan (machalg.MCFFHP, the §4 algorithm minus its precondition).
//   - ffbl-wait: biased-lock revocation whose wait (1) is inadequate
//     for the bound (Δ=10) — the revocation window reopens
//     (machalg.MCFFBL).
func PlantedControls() []Planted {
	return []Planted{
		{Name: "ffhp-tso", Program: machalg.MCFFHP(2, 2, 4), Delta: 0},
		{Name: "ffbl-wait", Program: machalg.MCFFBL(1, 1), Delta: 10},
	}
}

// FlagViolation reports whether outcome witnesses a flag-principle
// violation of p: some thread published a flag with an unfenced store
// and validated with a later load (seeing the initial value), while
// another thread raised the validated-against variable, fenced, and
// later scanned the first thread's flag without seeing it. Both planted
// controls — a hazard-pointer scan miss and a biased-lock revocation
// overlap — are instances of this store-buffering shape.
//
// Unlike machalg's MCFFHPMissed/MCFFBLOverlap, the roles are derived
// from the program text rather than fixed register positions, so the
// detector keeps working as the shrinker drops threads, ops, and
// registers. Outcomes that do not parse against p's shape return false
// (a witness needs evidence, never the benefit of the doubt).
func FlagViolation(p mc.Program, outcome string) bool {
	regs, ok := mc.ParseOutcome(outcome, len(p.Threads), p.Regs)
	if !ok {
		return false
	}
	for i, pub := range p.Threads {
		// Publisher side: St(h,v) … Ld(u,a) with no fence/RMW between
		// (an intervening fence would make the publication visible) and
		// u ≠ h (same-address loads hit the thread's own buffer).
		for si, sop := range pub {
			if sop.Kind != mc.OpStore {
				continue
			}
			for li := si + 1; li < len(pub); li++ {
				if pub[li].Kind == mc.OpFence || pub[li].Kind == mc.OpRMW {
					break
				}
				if pub[li].Kind != mc.OpLoad || pub[li].Addr == sop.Addr {
					continue
				}
				if pub[li].Reg < 0 || pub[li].Reg >= p.Regs {
					continue
				}
				if regs[i][pub[li].Reg] != 0 {
					continue // saw the raise: publisher backed off
				}
				if scanMissed(p, regs, i, sop.Addr, sop.Val, pub[li].Addr) {
					return true
				}
			}
		}
	}
	return false
}

// scanMissed: some thread j≠i raised u (St(u,w), w≠0), fenced (OpFence
// or OpRMW — both drain), and later scanned h seeing a value below v.
func scanMissed(p mc.Program, regs [][]int, i, h, v, u int) bool {
	for j, scan := range p.Threads {
		if j == i {
			continue
		}
		for sj, sop := range scan {
			if sop.Kind != mc.OpStore || sop.Addr != u || sop.Val == 0 {
				continue
			}
			fenced := false
			for k := sj + 1; k < len(scan); k++ {
				switch scan[k].Kind {
				case mc.OpFence, mc.OpRMW:
					fenced = true
				case mc.OpLoad:
					if fenced && scan[k].Addr == h &&
						scan[k].Reg >= 0 && scan[k].Reg < p.Regs &&
						regs[j][scan[k].Reg] < v {
						return true
					}
				}
			}
		}
	}
	return false
}

// FindViolation explores p at delta and returns the lexically first
// outcome witnessing a flag-principle violation, or "" if the
// exhaustive set admits none. The error reports truncation (absence
// under a truncated exploration proves nothing).
func FindViolation(p mc.Program, delta, maxStates int) (string, error) {
	if maxStates <= 0 {
		maxStates = mc.DefaultMaxStates
	}
	res, err := mc.ExploreParallel(p, delta, mc.Options{MaxStates: maxStates})
	if err != nil {
		return "", err
	}
	for _, o := range res.List() {
		if FlagViolation(p, o) {
			return o, nil
		}
	}
	return "", nil
}

// MachineWitness searches machine schedules of p at sweep Δ delta for a
// run whose sampled outcome satisfies witness, making a replay recipe
// concrete end to end (checker admits it AND the machine exhibits it).
// It tries the adversarial policy first — buffered stores living to the
// bound is exactly how a Δ violation shows — then random schedules,
// seeds each (64 when seeds <= 0).
func MachineWitness(p mc.Program, delta, seeds int, witness func(outcome string) bool) (MachineRun, string, bool) {
	if seeds <= 0 {
		seeds = 64
	}
	for _, pol := range []tso.DrainPolicy{tso.DrainAdversarial, tso.DrainRandom} {
		for s := 0; s < seeds; s++ {
			run := MachineRun{Delta: MachineDelta(delta), Policy: pol, Seed: int64(s)}
			outcome, err := RunOnMachine(p, run)
			if err != nil {
				continue
			}
			if witness(outcome) {
				return run, outcome, true
			}
		}
	}
	return MachineRun{}, "", false
}

// CheckPlanted runs one negative control end to end: find the
// violation in the exhaustive set, shrink it to a litmus-sized witness,
// search for a machine schedule exhibiting it, and package the
// replayable artifact. An error means the control did NOT trip — the
// fuzzer lost its ability to see this violation class, which is
// precisely what the negative control exists to catch.
func CheckPlanted(pl Planted, maxStates, maxAttempts int) (Artifact, error) {
	o, err := FindViolation(pl.Program, pl.Delta, maxStates)
	if err != nil {
		return Artifact{}, fmt.Errorf("planted %s: %w", pl.Name, err)
	}
	if o == "" {
		return Artifact{}, fmt.Errorf("planted %s: no flag-principle violation found at Δ=%d", pl.Name, pl.Delta)
	}
	sr := ShrinkViolation(Candidate{Program: pl.Program, Delta: pl.Delta}, maxStates, maxAttempts)
	shrunk := sr.Candidate
	wo, err := FindViolation(shrunk.Program, shrunk.Delta, maxStates)
	if err != nil || wo == "" {
		return Artifact{}, fmt.Errorf("planted %s: shrunk candidate lost the violation (%v)", pl.Name, err)
	}
	a := Artifact{
		Mismatch: Mismatch{
			Kind:    KindFlagViolation,
			Delta:   shrunk.Delta,
			Cover:   CoverDelta(shrunk.Program, MachineDelta(shrunk.Delta)),
			Outcome: wo,
			Detail:  "planted control " + pl.Name,
			Program: shrunk.Program,
		},
		Original:       pl.Program,
		ShrinkSteps:    sr.Steps,
		ShrinkAttempts: sr.Attempts,
	}
	flagged := func(o string) bool { return FlagViolation(shrunk.Program, o) }
	if run, _, found := MachineWitness(shrunk.Program, shrunk.Delta, 64, flagged); found {
		a.Schedule = &Schedule{Policy: run.Policy, MachSeed: run.Seed}
	}
	return a, nil
}

// ShrinkViolation minimizes a planted control: the failure predicate is
// "the exhaustive set at the candidate's Δ still admits a
// flag-principle witness". maxStates bounds each predicate exploration.
func ShrinkViolation(c Candidate, maxStates, maxAttempts int) ShrinkResult {
	fails := func(n Candidate) bool {
		o, err := FindViolation(n.Program, n.Delta, maxStates)
		return err == nil && o != ""
	}
	return Shrink(c, fails, maxAttempts)
}
