package mc

import (
	"bytes"
	"slices"
)

// Sound reductions for the TSO/TBTSO transition system. Four apply
// (symmetry has Options.NoSymmetry, the rest ride on
// Options.NoReduction; docs/MC.md carries the full soundness
// arguments):
//
//  1. Terminal collapse (any Δ): once every thread's pc is past its
//     last op, only dequeue transitions remain and none of them touches
//     a register, so the outcome is already determined — record it and
//     skip the factorially many interleavings of the remaining drains.
//
//  2. Invisible-dequeue priority (Δ=0, no Wait ops): a voluntary
//     dequeue of thread i's oldest entry (address a) is a left mover
//     when no OTHER thread's remaining ops load or RMW a, and either i
//     itself never reads a again or nobody else can write a (no
//     remaining store/RMW to a elsewhere, no buffered a-entry
//     elsewhere). Such a dequeue observationally commutes with every
//     transition any d-free execution can take, is never disabled, and
//     must occur in every complete schedule, so exploring it ALONE
//     preserves the outcome set (a singleton persistent set; the state
//     graph is acyclic at Δ=0 without waits, so there is no ignoring
//     problem). Under Δ>0 — or with Wait ops — every transition ages
//     buffers and drains wait counters, coupling all transition pairs
//     through the admissibility rule, so no two transitions are
//     independent and the reduction is disabled.
//
//  3. Symmetry canonicalization (any Δ): threads with byte-identical
//     op sequences induce an automorphism of the transition system, so
//     states are explored up to sorting each identity group by its
//     thread-local encoding; recorded outcomes are closed under the
//     group's permutations afterwards (orbit expansion), restoring the
//     exact outcome set.
//
//  4. Age-horizon erasure (Δ>0): an age matters only once it reaches Δ.
//     remaining(s) bounds the transitions any run from s can still
//     take, and every transition lowers it by at least one, so an entry
//     with age + remaining(s) < Δ is never forced. States that differ
//     only in such ages have the same futures and outcomes, so those
//     ages are zeroed before symmetry canonicalization.

// horizons precomputes, per thread and per pc, an upper bound on the
// transitions the suffix Threads[i][pc:] can still take: a Store counts
// 2 (the op and its dequeue), a Wait(n) n+2, every other op 1. Row
// pc == len(ops) is zero.
func horizons(p Program) [][]int {
	h := make([][]int, len(p.Threads))
	for i, ops := range p.Threads {
		h[i] = make([]int, len(ops)+1)
		for pc := len(ops) - 1; pc >= 0; pc-- {
			c := 1
			switch ops[pc].Kind {
			case OpStore:
				c = 2
			case OpWait:
				c = max(ops[pc].Val, 0) + 2
			}
			h[i][pc] = h[i][pc+1] + c
		}
	}
	return h
}

// remaining bounds the transitions any run from s can still take: the
// buffered entries plus each thread's horizon, where an armed Wait
// counts its pending burns and its advance instead of its full cost.
func (e *engine) remaining(s *state) int {
	r := 0
	for i := range s.bufs {
		r += len(s.bufs[i])
		if s.armed[i] {
			r += s.wait[i] + 1 + e.horizon[i][s.pc[i]+1]
		} else {
			r += e.horizon[i][s.pc[i]]
		}
	}
	return r
}

// eraseAges zeroes every buffered age that can no longer reach Δ
// (age + remaining(s) < Δ), mutating s in place.
func (e *engine) eraseAges(s *state) {
	lim := e.delta - e.remaining(s)
	if lim <= 0 {
		return
	}
	for i := range s.bufs {
		for j := range s.bufs[i] {
			if s.bufs[i][j].age < lim {
				s.bufs[i][j].age = 0
			}
		}
	}
}

// symGroups returns the groups (size ≥ 2) of thread indices with
// identical op slices, or nil if every thread is unique.
func symGroups(p Program) [][]int {
	var groups [][]int
	used := make([]bool, len(p.Threads))
	for i := range p.Threads {
		if used[i] {
			continue
		}
		g := []int{i}
		for j := i + 1; j < len(p.Threads); j++ {
			if !used[j] && slices.Equal(p.Threads[i], p.Threads[j]) {
				g = append(g, j)
				used[j] = true
			}
		}
		if len(g) > 1 {
			groups = append(groups, g)
		}
	}
	return groups
}

// accessMasks precomputes, per thread and per pc, the bitmask of
// addresses the suffix Threads[i][pc:] reads (Load/RMW) and writes
// (Store/RMW). Row pc == len(ops) is zero. Only valid for Vars ≤ 64;
// callers gate on that.
func accessMasks(p Program) (reads, writes [][]uint64) {
	reads = make([][]uint64, len(p.Threads))
	writes = make([][]uint64, len(p.Threads))
	for i, ops := range p.Threads {
		reads[i] = make([]uint64, len(ops)+1)
		writes[i] = make([]uint64, len(ops)+1)
		for pc := len(ops) - 1; pc >= 0; pc-- {
			r, w := reads[i][pc+1], writes[i][pc+1]
			op := ops[pc]
			bit := uint64(1) << uint(op.Addr)
			switch op.Kind {
			case OpLoad:
				r |= bit
			case OpStore:
				w |= bit
			case OpRMW:
				r |= bit
				w |= bit
			}
			reads[i][pc], writes[i][pc] = r, w
		}
	}
	return reads, writes
}

// hasWaits reports whether any thread contains an OpWait — waits couple
// transitions through the global transition counter, which disables the
// invisible-dequeue reduction.
func hasWaits(p Program) bool {
	for _, ops := range p.Threads {
		for _, op := range ops {
			if op.Kind == OpWait {
				return true
			}
		}
	}
	return false
}

// invisibleDequeue returns the lowest thread index whose head buffer
// entry satisfies the invisibility condition above, or -1. Only called
// when the engine's porOK gate (Δ=0, no waits, Vars ≤ 64, reduction
// enabled) holds.
func (e *engine) invisibleDequeue(s *state) int {
	for i := range s.bufs {
		if len(s.bufs[i]) == 0 {
			continue
		}
		bit := uint64(1) << uint(s.bufs[i][0].addr)
		var othersRead, othersWrite uint64
		for j := range s.bufs {
			if j == i {
				continue
			}
			othersRead |= e.readsAfter[j][s.pc[j]]
			othersWrite |= e.writesAfter[j][s.pc[j]]
			for _, en := range s.bufs[j] {
				othersWrite |= uint64(1) << uint(en.addr)
			}
		}
		if othersRead&bit != 0 {
			continue
		}
		selfReads := e.readsAfter[i][s.pc[i]]
		if selfReads&bit == 0 || othersWrite&bit == 0 {
			return i
		}
	}
	return -1
}

// canonicalize sorts each identity group's threads by their local-state
// encoding, mutating s in place. Scratch buffers live on the worker so
// steady-state canonicalization is allocation-free.
func (w *worker) canonicalize(s *state) {
	for gi, g := range w.e.groups {
		keys := w.symKeys[gi]
		for k, ti := range g {
			keys[k] = s.appendThread(keys[k][:0], ti)
		}
		// Insertion sort of the group's thread-local states by encoded
		// key; groups are tiny (2–8 threads).
		for a := 1; a < len(g); a++ {
			for b := a; b > 0 && bytes.Compare(keys[b], keys[b-1]) < 0; b-- {
				keys[b], keys[b-1] = keys[b-1], keys[b]
				i, j := g[b], g[b-1]
				s.pc[i], s.pc[j] = s.pc[j], s.pc[i]
				s.wait[i], s.wait[j] = s.wait[j], s.wait[i]
				s.armed[i], s.armed[j] = s.armed[j], s.armed[i]
				s.bufs[i], s.bufs[j] = s.bufs[j], s.bufs[i]
				s.regs[i], s.regs[j] = s.regs[j], s.regs[i]
			}
		}
	}
}

// orbit applies every permutation of every identity group to regs and
// calls emit for each resulting register assignment (including the
// identity). regs is not retained.
func orbit(groups [][]int, regs [][]int, emit func([][]int)) {
	if len(groups) == 0 {
		emit(regs)
		return
	}
	var rec func(gi int)
	rec = func(gi int) {
		if gi == len(groups) {
			emit(regs)
			return
		}
		g := groups[gi]
		perm := make([]int, len(g))
		copy(perm, g)
		// Heap's algorithm over the group's thread slots, swapping the
		// register files directly.
		var heaps func(k int)
		heaps = func(k int) {
			if k == 1 {
				rec(gi + 1)
				return
			}
			for i := 0; i < k; i++ {
				heaps(k - 1)
				if i < k-1 {
					if k%2 == 0 {
						regs[perm[i]], regs[perm[k-1]] = regs[perm[k-1]], regs[perm[i]]
					} else {
						regs[perm[0]], regs[perm[k-1]] = regs[perm[k-1]], regs[perm[0]]
					}
				}
			}
		}
		heaps(len(g))
	}
	rec(0)
}
