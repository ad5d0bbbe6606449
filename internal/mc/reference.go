package mc

import "strconv"

// This file is the sequential reference explorer, the oracle for the
// parallel engine in explore.go. What it protects is independence, not
// slowness: a recursive DFS with no reductions and no symmetry, keyed
// by a plain-text rendering of the whole state, sharing no code with
// explore.go, encode.go or reduce.go, so differential tests
// (differential_test.go) pin the engine's search, encoding and
// reductions to an unrelated implementation. The transition rules and
// the state layout are shared (mc.go); docs/MC.md lists the tests that
// pin them. Per-state cost may be cut as long as the search, the key
// text and the visit order stay the same. The slab state layout
// changed only two things here: the copy (cloneInto, one copy per
// slab) and the digit rendering (appendNum, one byte for 0..9).

// appendKey appends the state's canonical text key to dst:
// "p<pc>.<wait>.<armed>;" then "<addr>=<val>@<age>," per buffered
// entry, "|", "<reg>," per register and ";" for each thread, then
// "<val>." per memory word.
func (s *state) appendKey(dst []byte) []byte {
	for i := range s.pc {
		dst = append(dst, 'p')
		dst = appendNum(dst, s.pc[i])
		dst = append(dst, '.')
		dst = appendNum(dst, s.wait[i])
		if s.armed[i] {
			dst = append(dst, ".true;"...)
		} else {
			dst = append(dst, ".false;"...)
		}
		for _, e := range s.bufs[i] {
			dst = appendNum(dst, e.addr)
			dst = append(dst, '=')
			dst = appendNum(dst, e.val)
			dst = append(dst, '@')
			dst = appendNum(dst, e.age)
			dst = append(dst, ',')
		}
		dst = append(dst, '|')
		for _, r := range s.regs[i] {
			dst = appendNum(dst, r)
			dst = append(dst, ',')
		}
		dst = append(dst, ';')
	}
	for _, v := range s.mem {
		dst = appendNum(dst, v)
		dst = append(dst, '.')
	}
	return dst
}

// appendNum appends v in decimal: one byte for the common 0..9.
func appendNum(dst []byte, v int) []byte {
	if uint(v) < 10 {
		return append(dst, byte('0'+v))
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// cloneInto overwrites dst, which has s's layout, with s. It is the
// reference's own copy; the engine has its copyInto.
func (s *state) cloneInto(dst *state) {
	copy(dst.ints, s.ints)
	copy(dst.armed, s.armed)
	copy(dst.entries, s.entries)
	for i := range s.bufs {
		dst.bufs[i] = dst.bufs[i][:len(s.bufs[i])]
	}
}

// ExploreSequentialBounded is the reference explorer: single-threaded
// DFS with no reduction, enumerating every interleaving and drain
// schedule. The parallel engine must produce exactly this outcome set
// (its States count is smaller when reductions collapse equivalent
// schedules). maxStates budgets distinct states (a budget equal to the
// full count completes); a non-nil error is a *TruncatedError and res
// holds the partial outcome set (absence proves nothing).
func ExploreSequentialBounded(p Program, delta, maxStates int) (res Result, err error) {
	if len(p.Threads) == 0 {
		return Result{Outcomes: map[string]bool{"": true}, States: 1}, nil
	}
	res = Result{Outcomes: map[string]bool{}}
	complete := true
	seen := map[string]struct{}{}
	ageCap := ageCapFor(delta)

	// dfs(s, d) builds s's successors in scratch[d], one at a time:
	// each is fully explored before its sibling overwrites the slot, and
	// deeper calls only write scratch[d+1:].
	var kb []byte
	var scratch []*state
	var dfs func(s *state, d int)
	dfs = func(s *state, d int) {
		kb = s.appendKey(kb[:0])
		if _, ok := seen[string(kb)]; ok {
			return
		}
		if res.States >= maxStates {
			complete = false
			return
		}
		seen[string(kb)] = struct{}{}
		res.States++
		if d == len(scratch) {
			scratch = append(scratch, newState(p))
		}
		n := scratch[d]

		// Forced dequeues: under TBTSO[Δ] an entry at age ≥ Δ must
		// leave before anything else happens.
		if delta > 0 {
			forced := false
			for i := range s.bufs {
				if s.mustDequeue(i, delta) {
					forced = true
					s.cloneInto(n)
					n.dequeue(i, ageCap)
					dfs(n, d+1)
				}
			}
			if forced {
				return // only forced transitions are admissible here
			}
		}

		progress := false
		for i, ops := range p.Threads {
			// Voluntary dequeue.
			if len(s.bufs[i]) > 0 {
				progress = true
				s.cloneInto(n)
				n.dequeue(i, ageCap)
				dfs(n, d+1)
			}
			if s.pc[i] < len(ops) && s.enabled(i, ops[s.pc[i]]) {
				progress = true
				s.cloneInto(n)
				n.step(i, ops[s.pc[i]], ageCap)
				dfs(n, d+1)
			}
		}
		if !progress {
			// Terminal: flush any remaining buffers already handled by
			// the dequeue transitions above; with empty buffers and all
			// pcs done, record the outcome.
			done := true
			for i := range p.Threads {
				if s.pc[i] < len(p.Threads[i]) || len(s.bufs[i]) > 0 {
					done = false
				}
			}
			if done {
				res.Outcomes[s.outcome()] = true
			}
		}
	}
	dfs(newState(p), 0)
	if !complete {
		return res, &TruncatedError{MaxStates: maxStates, States: res.States, Shape: p.shape(delta), Partial: res}
	}
	return res, nil
}
