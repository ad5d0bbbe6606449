package machalg

import "tbtso/internal/mc"

// Model-checker program builders: straight-line mc.Program fragments of
// the paper's fence-free algorithms, sized so the parallel explorer
// (internal/mc explore.go) proves their key invariants EXHAUSTIVELY at
// a bound — territory the reference explorer cannot reach in practice.
// The fragments follow the litmus convention: run every interleaving,
// then forbid the register assignments that would witness a violation
// (a hazard scan miss, a mutual-exclusion overlap).

// MCFFHP builds `rounds` full FFHP Protect+Scan rounds between
// `readers` fence-free readers and one reclaimer (the §4 fence-free
// hazard pointers under the flag principle).
//
// Variables: 0..rounds-1 are per-round "node r unlinked" flags (memory
// starts zeroed = every node linked); rounds+k is reader k's hazard
// slot. Per round r, reader k publishes its hazard (St hp[k], r+1 — no
// fence!) and validates (Ld unlink[r]); the reclaimer unlinks
// (St unlink[r], 1), fences, waits out the bound, and scans every
// hazard slot.
//
// Reader k's registers: reg r = round-r validation (0 ⇒ node r seen
// still linked). Reclaimer registers: reg r*readers+k = round-r scan of
// reader k's slot. The hazard-miss witness for (round r, reader k) is
// "reader validated node r (reg r = 0) ∧ reclaimer's round-r scan of
// slot k saw neither r+1 nor a later round's hazard" — see
// MCFFHPMissed.
func MCFFHP(rounds, readers, wait int) mc.Program {
	hp := func(k int) int { return rounds + k }
	var threads [][]mc.Op
	for k := 0; k < readers; k++ {
		var ops []mc.Op
		for r := 0; r < rounds; r++ {
			ops = append(ops, mc.St(hp(k), r+1), mc.Ld(r, r))
		}
		threads = append(threads, ops)
	}
	var rec []mc.Op
	for r := 0; r < rounds; r++ {
		rec = append(rec, mc.St(r, 1), mc.Fence(), mc.Wait(wait))
		for k := 0; k < readers; k++ {
			rec = append(rec, mc.Ld(hp(k), r*readers+k))
		}
	}
	threads = append(threads, rec)
	return mc.Program{Threads: threads, Vars: rounds + readers, Regs: max(rounds*readers, rounds)}
}

// MCFFHPMissed reports whether the outcome string witnesses a hazard
// miss in any round for any reader: the reader validated node r as
// still linked while the reclaimer's round-r scan of that reader's
// slot observed no hazard ≥ r+1 (an older value means the protect
// store never became visible to the scan — the reclaimer would free
// the node the reader is using).
func MCFFHPMissed(outcome string, rounds, readers int) bool {
	regs := mustParseOutcome(outcome, readers+1, max(rounds*readers, rounds))
	for r := 0; r < rounds; r++ {
		for k := 0; k < readers; k++ {
			validated := regs[k][r] == 0
			scanned := regs[readers][r*readers+k]
			if validated && scanned < r+1 {
				return true
			}
		}
	}
	return false
}

// MCFFBL builds the FFBL acquire/revoke/re-bias fragment (Figure 3e's
// core race as a litmus program): the biased owner takes the fast path
// with no fence and no atomic — announce (St A, 1) then check the
// revocation flag (Ld FLAG) — and holds the lock to the end of the
// fragment when the flag was clear. Each revoker serializes behind the
// internal lock L (RMW — the slow path's atomic), raises the flag,
// fences, waits out the bound, then reads the owner's announce; it
// enters only if the announce is invisible, then transfers the bias
// (St BIAS). The owner's trailing Ld BIAS observes the re-bias.
//
// Variables: 0 FLAG, 1 A (owner announce), 2 L (internal lock),
// 3 BIAS. Owner regs: 0 = flag check (0 ⇒ entered CS), 1 = observed
// bias word. Revoker i regs: 0 = RMW ticket (old L), 1 = announce
// check (0 ⇒ entered CS), so the mutual-exclusion witness is
// owner r0 = 0 ∧ any revoker r1 = 0 — see MCFFBLOverlap. With
// revokers ≥ 2 the revoker threads are identical, exercising the
// explorer's symmetry reduction; revoker–revoker exclusion is the
// internal lock's job and outside this fragment's scope (the RMW
// models the slow path's atomic, not a held lock).
func MCFFBL(revokers, wait int) mc.Program {
	owner := []mc.Op{mc.St(1, 1), mc.Ld(0, 0), mc.Ld(3, 1)}
	threads := [][]mc.Op{owner}
	for i := 0; i < revokers; i++ {
		threads = append(threads, []mc.Op{
			mc.RMW(2, 1, 0),
			mc.St(0, 1),
			mc.Fence(),
			mc.Wait(wait),
			mc.Ld(1, 1),
			mc.St(3, 2),
		})
	}
	return mc.Program{Threads: threads, Vars: 4, Regs: 2}
}

// MCFFBLOverlap reports whether the outcome string witnesses a
// mutual-exclusion violation: the owner entered the critical section
// on the fence-free fast path while some revoker concluded the owner
// was absent.
func MCFFBLOverlap(outcome string, revokers int) bool {
	regs := mustParseOutcome(outcome, revokers+1, 2)
	if regs[0][0] != 0 {
		return false // owner saw the flag and backed off
	}
	for i := 1; i <= revokers; i++ {
		if regs[i][1] == 0 {
			return true
		}
	}
	return false
}

// mustParseOutcome decodes an outcome of a fragment with the given
// shape (mc.ParseOutcome). A property check must never read a garbled
// outcome as "no violation", so a malformed one panics.
func mustParseOutcome(outcome string, threads, regs int) [][]int {
	out, ok := mc.ParseOutcome(outcome, threads, regs)
	if !ok {
		panic("machalg: unparseable mc outcome " + outcome)
	}
	return out
}
