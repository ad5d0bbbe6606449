package mc

import (
	"bytes"
	"slices"
)

// Sound reductions for the TSO/TBTSO transition system. Three apply
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

// symGroups appends to groups[:0] the groups (size ≥ 2) of thread
// indices with identical op slices, reusing its memory; the result is
// empty if every thread is unique.
func symGroups(p Program, groups [][]int) [][]int {
	groups = groups[:0]
	for i, ops := range p.Threads {
		if slices.ContainsFunc(p.Threads[:i], func(o []Op) bool { return slices.Equal(o, ops) }) {
			continue // in the group of the first thread like it
		}
		n := len(groups)
		groups = slices.Grow(groups, 1)[:n+1]
		g := append(groups[n][:0], i)
		for j := i + 1; j < len(p.Threads); j++ {
			if slices.Equal(ops, p.Threads[j]) {
				g = append(g, j)
			}
		}
		groups[n] = g
		if len(g) == 1 {
			groups = groups[:n]
		}
	}
	return groups
}

// suffixRows reshapes t into one zeroed row of len(ops)+1 per thread of
// p, a row per pc plus the end, reusing its memory.
func suffixRows[T any](t [][]T, p Program) [][]T {
	return rows(t, len(p.Threads), func(i int) int { return len(p.Threads[i]) + 1 })
}

// rows reshapes t into n zeroed rows, row i of length size(i), reusing
// the memory of t and of every row it ever held.
func rows[T any](t [][]T, n int, size func(int) int) [][]T {
	t = slices.Grow(t[:0], n)[:n]
	for i := range t {
		t[i] = slab(t[i], size(i))
	}
	return t
}

// accessMasks precomputes, per thread and per pc, the bitmask of
// addresses the suffix Threads[i][pc:] reads (Load/RMW) and writes
// (Store/RMW). Row pc == len(ops) is zero. Only valid for Vars ≤ 64;
// callers gate on that. The tables reuse reads' and writes' memory.
func accessMasks(p Program, reads, writes [][]uint64) ([][]uint64, [][]uint64) {
	reads, writes = suffixRows(reads, p), suffixRows(writes, p)
	for i, ops := range p.Threads {
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
			keys[k] = w.e.codec.appendThread(keys[k][:0], s, ti)
		}
		// Insertion sort of the group's thread-local states by encoded
		// key; groups are tiny (2–8 threads).
		for a := 1; a < len(g); a++ {
			for b := a; b > 0 && bytes.Compare(keys[b], keys[b-1]) < 0; b-- {
				keys[b], keys[b-1] = keys[b-1], keys[b]
				s.swapThreads(g[b], g[b-1])
			}
		}
	}
}

// swapThreads exchanges the local states of identical threads i and j.
// Their buffer regions have equal capacity, so the contents swap and
// every view stays in its own region of the slabs (mc.go).
func (s *state) swapThreads(i, j int) {
	s.pc[i], s.pc[j] = s.pc[j], s.pc[i]
	s.wait[i], s.wait[j] = s.wait[j], s.wait[i]
	s.armed[i], s.armed[j] = s.armed[j], s.armed[i]
	bi, bj := s.bufs[i][:cap(s.bufs[i])], s.bufs[j][:cap(s.bufs[j])]
	for k := range max(len(s.bufs[i]), len(s.bufs[j])) {
		bi[k], bj[k] = bj[k], bi[k]
	}
	s.bufs[i], s.bufs[j] = bi[:len(s.bufs[j])], bj[:len(s.bufs[i])]
	for k := range s.regs[i] {
		s.regs[i][k], s.regs[j][k] = s.regs[j][k], s.regs[i][k]
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
