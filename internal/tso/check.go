package tso

import "fmt"

// CheckTrace independently validates an execution trace against the
// TSO rules, serving as an oracle for randomized testing of the
// machine itself:
//
//   - store buffers drain in FIFO order per thread (commit order
//     matches store order);
//   - every commit writes the value of the oldest pending store;
//   - every load returns either the newest pending (uncommitted) store
//     of its own thread to that address, or the current memory value,
//     and is marked FromBuf exactly in the first case;
//   - RMWs read-modify-write memory only when the issuing thread has
//     no pending stores;
//   - fences complete only with an empty buffer;
//   - with Δ > 0, no commit happens more than Δ ticks after its store.
//
// It returns nil if the trace is consistent.
func CheckTrace(events []Event, threads int, delta uint64) error {
	type pending struct {
		addr Addr
		val  Word
		tick uint64
	}
	mem := map[Addr]Word{}
	bufs := make([][]pending, threads)

	for i, e := range events {
		if e.Thread < 0 || e.Thread >= threads {
			return fmt.Errorf("event %d: thread %d out of range", i, e.Thread)
		}
		buf := bufs[e.Thread]
		switch e.Kind {
		case EvStore:
			bufs[e.Thread] = append(buf, pending{addr: e.Addr, val: e.Val, tick: e.Tick})

		case EvCommit:
			if len(buf) == 0 {
				return fmt.Errorf("event %d: commit with empty buffer (T%d)", i, e.Thread)
			}
			oldest := buf[0]
			if oldest.addr != e.Addr || oldest.val != e.Val {
				return fmt.Errorf("event %d: commit [%d]=%d but oldest pending is [%d]=%d — FIFO violated",
					i, e.Addr, e.Val, oldest.addr, oldest.val)
			}
			if delta > 0 && e.Tick > oldest.tick+delta {
				return fmt.Errorf("event %d: commit %d ticks after store, Δ=%d", i, e.Tick-oldest.tick, delta)
			}
			mem[e.Addr] = e.Val
			bufs[e.Thread] = buf[1:]

		case EvLoad:
			// Newest pending store to the address wins, and only then is
			// the load marked forwarded; else memory.
			j := len(buf) - 1
			for j >= 0 && buf[j].addr != e.Addr {
				j--
			}
			if e.FromBuf != (j >= 0) {
				return fmt.Errorf("event %d: load [%d] has FromBuf=%v, want %v", i, e.Addr, e.FromBuf, j >= 0)
			}
			if j >= 0 && buf[j].val != e.Val {
				return fmt.Errorf("event %d: load [%d]=%d but newest pending store has %d",
					i, e.Addr, e.Val, buf[j].val)
			}
			if j < 0 && mem[e.Addr] != e.Val {
				return fmt.Errorf("event %d: load [%d]=%d but memory has %d",
					i, e.Addr, e.Val, mem[e.Addr])
			}

		case EvRMW:
			if len(buf) != 0 {
				return fmt.Errorf("event %d: RMW with %d pending stores (T%d)", i, len(buf), e.Thread)
			}
			// The trace records the post-RMW memory value.
			mem[e.Addr] = e.Val

		case EvFence:
			if len(buf) != 0 {
				return fmt.Errorf("event %d: fence completed with %d pending stores (T%d)", i, len(buf), e.Thread)
			}
		}
	}
	return nil
}
