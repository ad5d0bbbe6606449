package fuzz

import (
	"slices"

	"tbtso/internal/mc"
)

// Candidate is the unit the shrinker minimizes: a program plus the
// sweep Δ the failure reproduced at.
type Candidate struct {
	Program mc.Program
	Delta   int
}

// ops returns the total op count, the shrinker's size measure.
func (c Candidate) ops() int {
	n := 0
	for _, th := range c.Program.Threads {
		n += len(th)
	}
	return n
}

// ShrinkResult reports what the shrinker did.
type ShrinkResult struct {
	Candidate Candidate
	// Steps is how many transformations were accepted (each one
	// re-validated by the failure predicate).
	Steps int
	// Attempts is how many candidate transformations were tried.
	Attempts int
}

// Shrink minimizes c while fails keeps returning true, delta-debugging
// style: each pass proposes a structural simplification, re-runs the
// failure predicate on the transformed candidate, and keeps the
// transformation only if the failure still reproduces. Because every
// acceptance is predicate-validated, the passes are free to be
// aggressive — dropping whole threads, halving op chunks, merging
// variables, renumbering registers, and cutting Δ — without any
// semantic-preservation argument. fails must be deterministic for the
// fixpoint loop to terminate; maxAttempts (≤0: 10_000) bounds predicate
// invocations so an expensive predicate cannot run away.
//
// The input candidate must itself fail; Shrink panics otherwise, since
// "minimize a non-failure" is always a harness bug.
func Shrink(c Candidate, fails func(Candidate) bool, maxAttempts int) ShrinkResult {
	if maxAttempts <= 0 {
		maxAttempts = 10_000
	}
	if !fails(c) {
		panic("fuzz: Shrink called with a passing candidate")
	}
	res := ShrinkResult{Candidate: c, Attempts: 1}

	// try replaces the current candidate if the transformed one still
	// fails; returns whether it was accepted.
	try := func(n Candidate) bool {
		if res.Attempts >= maxAttempts {
			return false
		}
		res.Attempts++
		if !fails(n) {
			return false
		}
		res.Candidate = n
		res.Steps++
		return true
	}

	for changed := true; changed && res.Attempts < maxAttempts; {
		changed = false
		changed = dropThreads(&res, try) || changed
		changed = dropOps(&res, try) || changed
		changed = shrinkValues(&res, try) || changed
		changed = mergeVars(&res, try) || changed
		changed = compactRegs(&res, try) || changed
		changed = shrinkDelta(&res, try) || changed
	}
	return res
}

// ShrinkMismatch minimizes a differential mismatch and packages the
// replayable artifact. The failure predicate re-runs the differential
// check on the candidate (same policies and machine-seed derivation, so
// it is deterministic) and demands a mismatch of the same kind at the
// candidate's Δ (recheck). If the
// mismatch unexpectedly fails to reproduce under the narrowed config,
// the artifact wraps the original unshrunk program instead of lying.
func ShrinkMismatch(cfg Config, m Mismatch, maxAttempts int) Artifact {
	cfg = cfg.orDefault()
	fails := func(c Candidate) bool {
		_, ok := recheck(cfg, m.Kind, c.Program, m.Seed, c.Delta)
		return ok
	}
	start := Candidate{Program: m.Program, Delta: m.Delta}
	if !fails(start) {
		return NewArtifact(m, start, ShrinkResult{Candidate: start})
	}
	sr := Shrink(start, fails, maxAttempts)

	// Re-derive the concrete failing run on the shrunk program so the
	// artifact's policy/seed/outcome replay against it, not the original.
	final, ok := recheck(cfg, m.Kind, sr.Candidate.Program, m.Seed, sr.Candidate.Delta)
	if !ok {
		final = m
	}
	a := NewArtifact(final, sr.Candidate, sr)
	a.Original = m.Program
	return a
}

// recheck re-runs the differential check on p and returns its first
// mismatch of kind at Δ delta. A machine mismatch is re-checked with
// the sweep cut to delta. An engine divergence is re-checked under
// cfg's sweep plus delta: a record from settle's exact check or chain
// shows only beside the sweep's other cells.
func recheck(cfg Config, kind string, p mc.Program, seed int64, delta int) (Mismatch, bool) {
	switch {
	case kind != KindEngineDivergence:
		cfg.Deltas = []int{delta}
	case !slices.Contains(cfg.Deltas, delta):
		cfg.Deltas = append(slices.Clip(cfg.Deltas), delta)
	}
	for _, m := range CheckProgram(cfg, p, seed).Mismatches {
		if m.Kind == kind && m.Delta == delta {
			return m, true
		}
	}
	return Mismatch{}, false
}

func cloneProgram(p mc.Program) mc.Program {
	q := p
	q.Threads = make([][]mc.Op, len(p.Threads))
	for i, th := range p.Threads {
		q.Threads[i] = append([]mc.Op(nil), th...)
	}
	return q
}

// dropThreads removes whole threads, largest-index first so outcome
// strings of surviving threads keep their thread numbers stable for as
// long as possible.
func dropThreads(res *ShrinkResult, try func(Candidate) bool) bool {
	changed := false
	for i := len(res.Candidate.Program.Threads) - 1; i >= 0; i-- {
		if len(res.Candidate.Program.Threads) <= 1 {
			break
		}
		if i >= len(res.Candidate.Program.Threads) {
			continue
		}
		n := res.Candidate
		n.Program = cloneProgram(n.Program)
		n.Program.Threads = append(n.Program.Threads[:i], n.Program.Threads[i+1:]...)
		if try(n) {
			changed = true
		}
	}
	return changed
}

// dropOps is ddmin over each thread's op list: first halves, then
// quarters, down to single ops.
func dropOps(res *ShrinkResult, try func(Candidate) bool) bool {
	changed := false
	for t := 0; t < len(res.Candidate.Program.Threads); t++ {
		for chunk := maxInt(1, len(res.Candidate.Program.Threads[t])/2); chunk >= 1; chunk /= 2 {
			for start := 0; start < len(res.Candidate.Program.Threads[t]); {
				ops := res.Candidate.Program.Threads[t]
				end := start + chunk
				if end > len(ops) {
					end = len(ops)
				}
				n := res.Candidate
				n.Program = cloneProgram(n.Program)
				n.Program.Threads[t] = append(n.Program.Threads[t][:start:start], n.Program.Threads[t][end:]...)
				if try(n) {
					changed = true
					// ops shifted left; retry the same start index.
					continue
				}
				start += chunk
			}
			if chunk == 1 {
				break
			}
		}
	}
	return changed
}

// shrinkValues lowers stored values, RMW addends, and Wait durations
// toward their minimum (1 for values, 0 for waits).
func shrinkValues(res *ShrinkResult, try func(Candidate) bool) bool {
	changed := false
	for t := 0; t < len(res.Candidate.Program.Threads); t++ {
		for i := 0; i < len(res.Candidate.Program.Threads[t]); i++ {
			op := res.Candidate.Program.Threads[t][i]
			var lower []int
			switch op.Kind {
			case mc.OpStore, mc.OpRMW:
				if op.Val > 1 {
					lower = []int{1, op.Val / 2}
				}
			case mc.OpWait:
				if op.Val > 0 {
					lower = []int{0, op.Val / 2}
				}
			}
			for _, v := range lower {
				if v == op.Val {
					continue
				}
				n := res.Candidate
				n.Program = cloneProgram(n.Program)
				n.Program.Threads[t][i].Val = v
				if try(n) {
					changed = true
					break
				}
			}
		}
	}
	return changed
}

// mergeVars redirects accesses of the highest variable onto lower ones
// and trims Vars, collapsing the program's address space.
func mergeVars(res *ShrinkResult, try func(Candidate) bool) bool {
	changed := false
	for res.Candidate.Program.Vars > 1 {
		hi := res.Candidate.Program.Vars - 1
		merged := false
		for lo := 0; lo < hi; lo++ {
			n := res.Candidate
			n.Program = cloneProgram(n.Program)
			for t := range n.Program.Threads {
				for i := range n.Program.Threads[t] {
					if n.Program.Threads[t][i].Addr == hi {
						n.Program.Threads[t][i].Addr = lo
					}
				}
			}
			n.Program.Vars = hi
			if try(n) {
				changed, merged = true, true
				break
			}
		}
		if !merged {
			break
		}
	}
	return changed
}

// compactRegs renumbers each thread's live registers densely from 0 and
// trims Regs to the maximum live count. This rewrites outcome strings,
// which is exactly why the shrinker re-validates via the predicate
// instead of preserving outcomes syntactically.
func compactRegs(res *ShrinkResult, try func(Candidate) bool) bool {
	p := res.Candidate.Program
	maxLive := 0
	n := res.Candidate
	n.Program = cloneProgram(p)
	dirty := false
	for t := range n.Program.Threads {
		remap := map[int]int{}
		for i := range n.Program.Threads[t] {
			op := &n.Program.Threads[t][i]
			if op.Kind != mc.OpLoad && op.Kind != mc.OpRMW {
				continue
			}
			to, ok := remap[op.Reg]
			if !ok {
				to = len(remap)
				remap[op.Reg] = to
			}
			if to != op.Reg {
				dirty = true
			}
			op.Reg = to
		}
		if len(remap) > maxLive {
			maxLive = len(remap)
		}
	}
	if maxLive == 0 {
		maxLive = 1
	}
	if maxLive != n.Program.Regs {
		dirty = true
	}
	n.Program.Regs = maxLive
	if !dirty {
		return false
	}
	return try(n)
}

// shrinkDelta tries smaller Δs: 0 (plain TSO) first — the strongest
// simplification — then halving, then decrement.
func shrinkDelta(res *ShrinkResult, try func(Candidate) bool) bool {
	changed := false
	for {
		d := res.Candidate.Delta
		if d <= 0 {
			return changed
		}
		accepted := false
		for _, nd := range []int{0, d / 2, d - 1} {
			if nd == d {
				continue
			}
			n := res.Candidate
			n.Delta = nd
			if try(n) {
				changed, accepted = true, true
				break
			}
		}
		if !accepted {
			return changed
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
