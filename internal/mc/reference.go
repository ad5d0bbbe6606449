package mc

import "strconv"

// This file is the sequential reference explorer, the oracle for the
// parallel engine in explore.go. What it protects is independence, not
// slowness: a recursive DFS with no reductions and no symmetry, keyed
// by a plain-text rendering of the whole state, sharing no hot-path
// code with explore.go, encode.go or reduce.go, so differential tests
// (differential_test.go) pin two unrelated implementations to each
// other. Per-state cost may be cut as long as the search, the key text
// and the visit order stay the same.

// appendKey appends the state's canonical text key to dst:
// "p<pc>.<wait>.<armed>;" then "<addr>=<val>@<age>," per buffered
// entry, "|", "<reg>," per register and ";" for each thread, then
// "<val>." per memory word.
func (s *state) appendKey(dst []byte) []byte {
	for i := range s.pc {
		dst = append(dst, 'p')
		dst = strconv.AppendInt(dst, int64(s.pc[i]), 10)
		dst = append(dst, '.')
		dst = strconv.AppendInt(dst, int64(s.wait[i]), 10)
		dst = append(dst, '.')
		dst = strconv.AppendBool(dst, s.armed[i])
		dst = append(dst, ';')
		for _, e := range s.bufs[i] {
			dst = strconv.AppendInt(dst, int64(e.addr), 10)
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, int64(e.val), 10)
			dst = append(dst, '@')
			dst = strconv.AppendInt(dst, int64(e.age), 10)
			dst = append(dst, ',')
		}
		dst = append(dst, '|')
		for _, r := range s.regs[i] {
			dst = strconv.AppendInt(dst, int64(r), 10)
			dst = append(dst, ',')
		}
		dst = append(dst, ';')
	}
	for _, v := range s.mem {
		dst = strconv.AppendInt(dst, int64(v), 10)
		dst = append(dst, '.')
	}
	return dst
}

// cloneInto overwrites dst with s, reusing dst's slice capacity. It is
// the reference's own copy; the engine has its copyInto.
func (s *state) cloneInto(dst *state) {
	dst.pc = append(dst.pc[:0], s.pc...)
	dst.wait = append(dst.wait[:0], s.wait...)
	dst.armed = append(dst.armed[:0], s.armed...)
	dst.mem = append(dst.mem[:0], s.mem...)
	if len(dst.bufs) != len(s.bufs) {
		dst.bufs = make([][]bufEntry, len(s.bufs))
		dst.regs = make([][]int, len(s.regs))
	}
	for i := range s.bufs {
		dst.bufs[i] = append(dst.bufs[i][:0], s.bufs[i]...)
		dst.regs[i] = append(dst.regs[i][:0], s.regs[i]...)
	}
}

// ExploreSequential is the reference explorer: single-threaded DFS with
// no reduction, enumerating every interleaving and drain schedule. It
// panics if the state space exceeds DefaultMaxStates. The parallel
// engine must produce exactly this outcome set (its States count is
// smaller when reductions collapse equivalent schedules).
func ExploreSequential(p Program, delta int) Result {
	res, err := ExploreSequentialBounded(p, delta, DefaultMaxStates)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// ExploreSequentialBounded is ExploreSequential with an explicit state
// budget of distinct states (a budget equal to the full count
// completes); a non-nil error is a *TruncatedError and res holds the
// partial outcome set (absence proves nothing).
func ExploreSequentialBounded(p Program, delta, maxStates int) (res Result, err error) {
	if len(p.Threads) == 0 {
		return Result{Outcomes: map[string]bool{"": true}, States: 1}, nil
	}
	res = Result{Outcomes: map[string]bool{}}
	complete := true
	seen := map[string]struct{}{}
	ageCap := delta + 1
	if delta == 0 {
		ageCap = 0 // ages are irrelevant without a bound; keep them 0
	}

	// dfs(s, d) builds s's successors in scratch[d], one at a time:
	// each is fully explored before its sibling overwrites the slot, and
	// deeper calls only write scratch[d+1:]. Dequeues shift a buffer in
	// place so the slot keeps its capacity.
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
			scratch = append(scratch, &state{})
		}
		n := scratch[d]

		// Forced dequeues: under TBTSO[Δ] an entry at age ≥ Δ must
		// leave before anything else happens.
		if delta > 0 {
			forced := false
			for i := range s.bufs {
				if len(s.bufs[i]) > 0 && s.bufs[i][0].age >= delta {
					forced = true
					s.cloneInto(n)
					e := n.bufs[i][0]
					n.bufs[i] = append(n.bufs[i][:0], n.bufs[i][1:]...)
					n.mem[e.addr] = e.val
					n.ageAll(ageCap)
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
				e := n.bufs[i][0]
				n.bufs[i] = append(n.bufs[i][:0], n.bufs[i][1:]...)
				n.mem[e.addr] = e.val
				n.ageAll(ageCap)
				dfs(n, d+1)
			}
			if s.pc[i] >= len(ops) {
				continue
			}
			op := ops[s.pc[i]]
			switch op.Kind {
			case OpStore:
				progress = true
				s.cloneInto(n)
				n.bufs[i] = append(n.bufs[i], bufEntry{addr: op.Addr, val: op.Val})
				n.pc[i]++
				n.ageAll(ageCap)
				dfs(n, d+1)
			case OpLoad:
				progress = true
				s.cloneInto(n)
				v := n.mem[op.Addr]
				for j := len(n.bufs[i]) - 1; j >= 0; j-- {
					if n.bufs[i][j].addr == op.Addr {
						v = n.bufs[i][j].val
						break
					}
				}
				n.regs[i][op.Reg] = v
				n.pc[i]++
				n.ageAll(ageCap)
				dfs(n, d+1)
			case OpFence:
				if len(s.bufs[i]) == 0 {
					progress = true
					s.cloneInto(n)
					n.pc[i]++
					n.ageAll(ageCap)
					dfs(n, d+1)
				}
			case OpRMW:
				if len(s.bufs[i]) == 0 {
					progress = true
					s.cloneInto(n)
					old := n.mem[op.Addr]
					n.regs[i][op.Reg] = old
					n.mem[op.Addr] = old + op.Val
					n.pc[i]++
					n.ageAll(ageCap)
					dfs(n, d+1)
				}
			case OpWait:
				progress = true
				s.cloneInto(n)
				switch {
				case !n.armed[i] && op.Val > 0:
					// Arm the wait; it elapses as transitions occur.
					n.armed[i] = true
					n.wait[i] = op.Val
				case n.wait[i] == 0:
					// Elapsed (or zero-length): advance.
					n.armed[i] = false
					n.pc[i]++
				default:
					// Still pending: burn one transition.
				}
				n.ageAll(ageCap)
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
