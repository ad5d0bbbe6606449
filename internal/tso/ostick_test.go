package tso

import "testing"

// Tests for the §6.2 OS-support model: periodic timer interrupts drain
// store buffers and stamp the time array A.

func TestTickPeriodDrainsBuffers(t *testing.T) {
	// Plain TSO + adversarial drains, but with timer interrupts: a
	// store becomes visible within about one period, no fence needed.
	const period = 40
	m := New(Config{Policy: DrainAdversarial, TickPeriod: period, Seed: 1})
	a := m.AllocWords(1)
	var visibleAfter uint64
	var storedAt uint64
	m.Spawn("writer", func(th *Thread) {
		storedAt = th.Clock()
		th.Store(a, 1)
		for i := 0; i < 6*period; i++ {
			th.Yield()
		}
	})
	m.Spawn("reader", func(th *Thread) {
		for {
			if th.Load(a) != 0 {
				visibleAfter = th.Clock() - storedAt
				return
			}
		}
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if visibleAfter == 0 || visibleAfter > 2*period {
		t.Fatalf("store visible after %d ticks, want within ~%d", visibleAfter, period)
	}
}

func TestTickBoardStamped(t *testing.T) {
	const period = 25
	m := New(Config{Policy: DrainAdversarial, TickPeriod: period, Seed: 2})
	board := m.AllocWords(2)
	m.SetTickBoard(board)
	var last Word
	m.Spawn("t0", func(th *Thread) {
		for i := 0; i < 5*period; i++ {
			th.Yield()
		}
		last = th.Load(board)
	})
	m.Spawn("t1", func(th *Thread) {
		for i := 0; i < 5*period; i++ {
			th.Yield()
		}
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if last == 0 {
		t.Fatal("A[0] never stamped")
	}
	if m.PeekWord(board+1) == 0 {
		t.Fatal("A[1] never stamped")
	}

	// Reset removes the board: the same run stamps nothing.
	m.Reset(Config{Policy: DrainAdversarial, TickPeriod: period, Seed: 2})
	board = m.AllocWords(2)
	m.Spawn("t0", func(th *Thread) {
		for i := 0; i < 5*period; i++ {
			th.Yield()
		}
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run after Reset: %v", res.Err)
	}
	if a0 := m.PeekWord(board); a0 != 0 {
		t.Fatalf("A[0] = %d after Reset, want 0: the board survived Reset", a0)
	}
}

func TestTicksAreStaggered(t *testing.T) {
	// Two threads' interrupts should not fire on the same tick (phase
	// offset = period/threads).
	const period = 40
	m := New(Config{Policy: DrainAdversarial, TickPeriod: period, Seed: 3})
	board := m.AllocWords(2)
	m.SetTickBoard(board)
	m.Spawn("t0", func(th *Thread) {
		for i := 0; i < 3*period; i++ {
			th.Yield()
		}
	})
	m.Spawn("t1", func(th *Thread) {
		for i := 0; i < 3*period; i++ {
			th.Yield()
		}
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	a0, a1 := m.PeekWord(board), m.PeekWord(board+1)
	if a0 == a1 {
		t.Fatalf("interrupts not staggered: A = [%d, %d]", a0, a1)
	}
}
