package mc

import "bytes"

// Step is one transition of a witness path: Thread's next op, of kind
// Kind, or (Dequeue) the commit of Thread's oldest buffered entry. Addr
// and Val are what it touched: the entry a store buffers or a dequeue
// commits, the value a load read (FromBuf: from Thread's own buffer),
// the value an RMW wrote. Fences and waits ignore them.
type Step struct {
	Thread    int
	Dequeue   bool
	Kind      OpKind
	Addr, Val int
	FromBuf   bool
}

// PathChecker checks witness paths: concrete executions replayed through
// the transition helpers every engine uses. A path that checks proves
// its outcome is in the outcome set at its Δ; one that does not proves
// nothing. The zero value is ready; its state is reused, so a check
// allocates nothing once grown. Not safe for concurrent use.
type PathChecker struct {
	s   state
	out []byte
}

// Check reports whether steps is a path of p at Δ from the initial
// state to a final one (every op taken, every buffer empty) whose
// registers render as outcome. Each step must be admissible where it is
// taken: its op is the thread's next and enabled, its addresses and
// values are the ones the state yields, and while some thread's oldest
// entry has reached Δ only such a dequeue may run.
//
// A non-dequeue OpWait step is a unit of time the thread spent without
// a visible action: one wait transition (arm, burn or advance) when the
// thread's next op is a Wait, no transition otherwise.
func (c *PathChecker) Check(p Program, delta int, steps []Step, outcome []byte) bool {
	s := &c.s
	s.reset(p)
	ageCap := ageCapFor(delta)
	for _, st := range steps {
		i := st.Thread
		if i < 0 || i >= len(p.Threads) {
			return false
		}
		var op Op
		if !st.Dequeue {
			if s.pc[i] == len(p.Threads[i]) || p.Threads[i][s.pc[i]].Kind != st.Kind {
				if st.Kind == OpWait {
					continue
				}
				return false
			}
			op = p.Threads[i][s.pc[i]]
		}
		if !st.Dequeue || !s.mustDequeue(i, delta) {
			for j := range s.bufs {
				if s.mustDequeue(j, delta) {
					return false
				}
			}
		}
		switch {
		case st.Dequeue:
			if len(s.bufs[i]) == 0 || s.bufs[i][0].addr != st.Addr || s.bufs[i][0].val != st.Val {
				return false
			}
			s.dequeue(i, ageCap)
			continue
		case !s.enabled(i, op):
			return false
		case op.Kind == OpStore:
			if st.Addr != op.Addr || st.Val != op.Val {
				return false
			}
		case op.Kind == OpLoad:
			if v, fromBuf := s.load(i, op.Addr); st.Addr != op.Addr || st.Val != v || st.FromBuf != fromBuf {
				return false
			}
		case op.Kind == OpRMW:
			if st.Addr != op.Addr || st.Val != s.mem[op.Addr]+op.Val {
				return false
			}
		}
		s.step(i, op, ageCap)
	}
	for i := range p.Threads {
		if s.pc[i] < len(p.Threads[i]) || len(s.bufs[i]) > 0 {
			return false
		}
	}
	c.out = AppendOutcome(c.out[:0], s.regs)
	return bytes.Equal(c.out, outcome)
}
