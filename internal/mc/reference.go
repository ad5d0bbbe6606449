package mc

import (
	"strconv"
	"unsafe"
)

// This file is the sequential reference explorer, the oracle for the
// parallel engine in explore.go. What it protects is independence, not
// slowness: a recursive DFS with no reductions and no symmetry, keyed
// by a plain-text rendering of the whole state, sharing no code with
// explore.go, encode.go, reduce.go or visited.go, so differential tests
// (differential_test.go) pin the engine's search, encoding and
// reductions to an unrelated implementation. The transition rules,
// the state layout and its copy (copyInto) are shared (mc.go);
// docs/MC.md lists the tests that pin them. Per-state cost may be cut
// as long as the search, the key text and the visit order stay the
// same: a copy is one copy per slab, a digit 0..9 one byte
// (appendNum), a key an append to an arena, and only an outcome new to
// the set allocates.

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

// ExploreSequentialBounded is the reference explorer: single-threaded
// DFS with no reduction, enumerating every interleaving and drain
// schedule. The parallel engine must produce exactly this outcome set
// (its States count is smaller when reductions collapse equivalent
// schedules). maxStates budgets distinct states (a budget equal to the
// full count completes); a non-nil error is a *TruncatedError and res
// holds the partial outcome set (absence proves nothing). It runs on a
// fresh Reference.
func ExploreSequentialBounded(p Program, delta, maxStates int) (Result, error) {
	return new(Reference).Explore(p, delta, maxStates, 0)
}

// Reference is a reusable context for the reference explorer: it keeps
// its seen map (up to refKeepSeen keys), key arena chunks (up to
// refKeepArena bytes) and per-depth scratch states between
// explorations. The zero value is ready. Not safe for concurrent use.
type Reference struct {
	p                        Program
	delta, ageCap, maxStates int
	res                      Result
	complete                 bool

	seen    map[string]struct{} // keys are views of arena chunks
	arena   []byte              // the open key chunk
	chunks  [][]byte            // retained chunks, reused in order
	next    int                 // the next retained chunk to open
	kept    int                 // bytes retained in chunks
	kb, ob  []byte              // key and outcome scratch
	init    state
	scratch []*state // per-depth successor slots
	ready   int      // scratch slots holding p's layout
}

const (
	refKeepSeen  = 1 << 10
	refArena     = 16 << 10 // the largest key chunk
	refKeepArena = 16 * refArena
)

// Explore is ExploreSequentialBounded on r's reused context. expect is
// a lower bound on the states it will visit, such as the engine's count
// for the same (p, Δ) — the engine's reductions only remove states — or
// 0 when unknown; a fresh seen map is sized for it.
func (r *Reference) Explore(p Program, delta, maxStates, expect int) (Result, error) {
	if len(p.Threads) == 0 {
		return Result{Outcomes: map[string]bool{"": true}, States: 1}, nil
	}
	r.p, r.delta, r.ageCap, r.maxStates = p, delta, ageCapFor(delta), maxStates
	r.res, r.complete = Result{Outcomes: map[string]bool{}}, true
	if r.seen == nil || len(r.seen) > refKeepSeen || expect > refKeepSeen {
		r.seen = make(map[string]struct{}, min(expect, maxStates))
	} else {
		clear(r.seen)
	}
	r.arena, r.next = nil, 0
	r.ready = 0
	r.init.reset(p)
	r.dfs(&r.init, 0)
	res := r.res
	r.res = Result{}
	if !r.complete {
		return res, &TruncatedError{MaxStates: maxStates, States: res.States, Shape: p.shape(delta), Partial: res}
	}
	return res, nil
}

// intern returns r.kb's bytes as a string stored in the arena. A full
// chunk is left to the keys that view it until the next exploration;
// the next chunk is the next retained one, or a fresh one twice the
// full one's size, up to refArena.
func (r *Reference) intern() string {
	n := len(r.kb)
	if cap(r.arena)-len(r.arena) < n {
		r.arena = r.openChunk(n)
	}
	off := len(r.arena)
	r.arena = append(r.arena, r.kb...)
	return unsafe.String(&r.arena[off], n)
}

// openChunk returns an empty key chunk with room for n bytes: the next
// retained chunk when it has the room, else a fresh one, retained while
// the retained chunks stay within refKeepArena bytes.
func (r *Reference) openChunk(n int) []byte {
	if r.next < len(r.chunks) && cap(r.chunks[r.next]) >= n {
		r.next++
		return r.chunks[r.next-1][:0]
	}
	c := make([]byte, 0, max(min(2*cap(r.arena), refArena), 256, n))
	if r.next == len(r.chunks) && r.kept+cap(c) <= refKeepArena {
		r.chunks = append(r.chunks, c)
		r.kept += cap(c)
		r.next++
	}
	return c
}

// dfs visits s at depth d, building s's successors in scratch[d] one at
// a time: each is fully explored before its sibling overwrites the
// slot, and deeper calls only write scratch[d+1:].
func (r *Reference) dfs(s *state, d int) {
	r.kb = s.appendKey(r.kb[:0])
	if _, ok := r.seen[string(r.kb)]; ok {
		return
	}
	if r.res.States >= r.maxStates {
		r.complete = false
		return
	}
	r.seen[r.intern()] = struct{}{}
	r.res.States++
	if d == r.ready {
		if d == len(r.scratch) {
			r.scratch = append(r.scratch, new(state))
		}
		r.scratch[d].reset(r.p)
		r.ready++
	}
	n := r.scratch[d]
	delta, ageCap := r.delta, r.ageCap

	// Forced dequeues: under TBTSO[Δ] an entry at age ≥ Δ must
	// leave before anything else happens.
	if delta > 0 {
		forced := false
		for i := range s.bufs {
			if s.mustDequeue(i, delta) {
				forced = true
				s.copyInto(n)
				n.dequeue(i, ageCap)
				r.dfs(n, d+1)
			}
		}
		if forced {
			return // only forced transitions are admissible here
		}
	}

	progress := false
	for i, ops := range r.p.Threads {
		// Voluntary dequeue.
		if len(s.bufs[i]) > 0 {
			progress = true
			s.copyInto(n)
			n.dequeue(i, ageCap)
			r.dfs(n, d+1)
		}
		if s.pc[i] < len(ops) && s.enabled(i, ops[s.pc[i]]) {
			progress = true
			s.copyInto(n)
			n.step(i, ops[s.pc[i]], ageCap)
			r.dfs(n, d+1)
		}
	}
	if !progress {
		// Terminal: flush any remaining buffers already handled by
		// the dequeue transitions above; with empty buffers and all
		// pcs done, record the outcome.
		done := true
		for i := range r.p.Threads {
			if s.pc[i] < len(r.p.Threads[i]) || len(s.bufs[i]) > 0 {
				done = false
			}
		}
		if done {
			r.ob = AppendOutcome(r.ob[:0], s.regs)
			if !r.res.Outcomes[string(r.ob)] {
				r.res.Outcomes[string(r.ob)] = true
			}
		}
	}
}
