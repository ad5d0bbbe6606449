package mc

import "testing"

// Step builders for hand-written paths.
func pSt(t, addr, val int) Step { return Step{Thread: t, Kind: OpStore, Addr: addr, Val: val} }
func pLd(t, addr, val int, fromBuf bool) Step {
	return Step{Thread: t, Kind: OpLoad, Addr: addr, Val: val, FromBuf: fromBuf}
}
func pDq(t, addr, val int) Step  { return Step{Thread: t, Dequeue: true, Addr: addr, Val: val} }
func pFence(t int) Step          { return Step{Thread: t, Kind: OpFence} }
func pRMW(t, addr, val int) Step { return Step{Thread: t, Kind: OpRMW, Addr: addr, Val: val} }
func pIdle(t int) Step           { return Step{Thread: t, Kind: OpWait} }

// TestPathCheck is a table of hand-built paths: each good path checks,
// and each bad one, a single defect away from a good one, is rejected.
func TestPathCheck(t *testing.T) {
	const relaxed = "T0:r0=0 T1:r0=0"
	// SB's relaxed outcome: both loads run while both stores are
	// buffered. At Δ 4 the stores leave just in time.
	sbRelaxed := []Step{pSt(0, 0, 1), pSt(1, 1, 1), pLd(0, 1, 0, false), pLd(1, 0, 0, false), pDq(0, 0, 1), pDq(1, 1, 1)}
	fenced := Program{Threads: [][]Op{{St(0, 1), Fence(), Ld(0, 0)}}, Vars: 1, Regs: 1}
	rmw := Program{Threads: [][]Op{{St(0, 1), RMW(0, 2, 0)}}, Vars: 1, Regs: 1}
	fwd := Program{Threads: [][]Op{{St(0, 1), Ld(0, 0)}}, Vars: 1, Regs: 1}
	// T0 waits two transitions before it reads what T1 stores.
	wait := Program{Threads: [][]Op{{Wait(2), Ld(0, 0)}, {St(0, 1)}}, Vars: 1, Regs: 1}
	cases := []struct {
		name    string
		p       Program
		delta   int
		steps   []Step
		outcome string
		want    bool
	}{
		{"sb relaxed", sb(false), 4, sbRelaxed, relaxed, true},
		{"sb unbounded", sb(false), 0, sbRelaxed, relaxed, true},
		{"sb outcome differs from registers", sb(false), 4, sbRelaxed, "T0:r0=1 T1:r0=0", false},
		{"sb entry past delta while others run", sb(false), 3, sbRelaxed, relaxed, false},
		{"sb wrong load value", sb(false), 4,
			[]Step{pSt(0, 0, 1), pSt(1, 1, 1), pLd(0, 1, 1, false), pLd(1, 0, 0, false), pDq(0, 0, 1), pDq(1, 1, 1)}, relaxed, false},
		{"sb wrong commit value", sb(false), 4,
			[]Step{pSt(0, 0, 1), pSt(1, 1, 1), pLd(0, 1, 0, false), pLd(1, 0, 0, false), pDq(0, 0, 2), pDq(1, 1, 1)}, relaxed, false},
		{"sb wrong store address", sb(false), 4,
			[]Step{pSt(0, 1, 1), pSt(1, 1, 1), pLd(0, 1, 0, false), pLd(1, 0, 0, false), pDq(0, 1, 1), pDq(1, 1, 1)}, relaxed, false},
		{"sb entry left buffered", sb(false), 0, sbRelaxed[:5], relaxed, false},
		{"sb thread out of range", sb(false), 0, append([]Step{pSt(2, 0, 1)}, sbRelaxed...), relaxed, false},
		{"fence after drain", fenced, 3, []Step{pSt(0, 0, 1), pDq(0, 0, 1), pFence(0), pLd(0, 0, 1, false)}, "T0:r0=1", true},
		{"fence over buffered store", fenced, 3, []Step{pSt(0, 0, 1), pFence(0), pDq(0, 0, 1), pLd(0, 0, 1, false)}, "T0:r0=1", false},
		{"rmw after drain", rmw, 3, []Step{pSt(0, 0, 1), pDq(0, 0, 1), pRMW(0, 0, 3)}, "T0:r0=1", true},
		{"rmw over buffered store", rmw, 3, []Step{pSt(0, 0, 1), pRMW(0, 0, 3), pDq(0, 0, 1)}, "T0:r0=1", false},
		{"rmw wrong new value", rmw, 3, []Step{pSt(0, 0, 1), pDq(0, 0, 1), pRMW(0, 0, 2)}, "T0:r0=1", false},
		{"forwarded load", fwd, 3, []Step{pSt(0, 0, 1), pLd(0, 0, 1, true), pDq(0, 0, 1)}, "T0:r0=1", true},
		{"forwarded load read as memory", fwd, 3, []Step{pSt(0, 0, 1), pLd(0, 0, 1, false), pDq(0, 0, 1)}, "T0:r0=1", false},
		{"wait arm burn advance", wait, 0,
			[]Step{pIdle(0), pIdle(0), pIdle(0), pLd(0, 0, 0, false), pSt(1, 0, 1), pDq(1, 0, 1)}, "T0:r0=0 T1:r0=0", true},
		{"wait elapsed by other threads", wait, 0,
			[]Step{pIdle(0), pSt(1, 0, 1), pDq(1, 0, 1), pIdle(0), pLd(0, 0, 1, false)}, "T0:r0=1 T1:r0=0", true},
		{"idle outside a wait takes no transition", wait, 0,
			[]Step{pIdle(1), pIdle(0), pIdle(0), pIdle(0), pIdle(0), pLd(0, 0, 0, false), pIdle(0), pSt(1, 0, 1), pDq(1, 0, 1)}, "T0:r0=0 T1:r0=0", true},
		{"op before its wait elapsed", wait, 0,
			[]Step{pIdle(0), pIdle(0), pLd(0, 0, 0, false), pSt(1, 0, 1), pDq(1, 0, 1)}, "T0:r0=0 T1:r0=0", false},
		{"op before its wait armed", wait, 0,
			[]Step{pLd(0, 0, 0, false), pSt(1, 0, 1), pDq(1, 0, 1)}, "T0:r0=0 T1:r0=0", false},
	}
	var c PathChecker
	for _, tc := range cases {
		if got := c.Check(tc.p, tc.delta, tc.steps, []byte(tc.outcome)); got != tc.want {
			t.Errorf("%s: Check = %v, want %v", tc.name, got, tc.want)
		}
	}
}
