package smr

import (
	"strings"
	"testing"
	"time"

	"tbtso/internal/arena"
	"tbtso/internal/core"
	"tbtso/internal/ostick"
)

func testConfig(threads int) Config {
	return Config{
		Threads: threads,
		K:       3,
		R:       threads*3 + 2,
		Arena:   arena.New(4096, threads+1),
		Delta:   2 * time.Millisecond,
	}
}

func TestRegistryConstructsEveryKind(t *testing.T) {
	board := ostick.NewBoard(2, time.Millisecond)
	defer board.Stop()
	for _, k := range append(AllKinds(), KindLeak) {
		cfg := testConfig(2)
		cfg.Board = board
		s := New(k, cfg)
		if s.Name() == "" {
			t.Fatalf("%v: empty name", k)
		}
		s.OpBegin(0, 0)
		s.Protect(0, 0, arena.Nil)
		s.Visit(0)
		s.OpEnd(0)
		s.Flush(0)
		s.Close()
	}
}

func TestHPProtectedNodeSurvivesReclaim(t *testing.T) {
	cfg := testConfig(2)
	hp := NewHP(cfg)
	defer hp.Close()
	h := cfg.Arena.Alloc(0)
	hp.Protect(1, 0, h) // thread 1 protects
	// Thread 0 retires it R times' worth of other nodes to force scans.
	hp.Retire(0, h)
	for i := 0; i < cfg.R+2; i++ {
		x := cfg.Arena.Alloc(0)
		hp.Retire(0, x)
	}
	if cfg.Arena.Violations() != 0 {
		t.Fatalf("violations: %d", cfg.Arena.Violations())
	}
	// h must still be live: reading through it must not fault.
	_ = cfg.Arena.Key(h)
	if cfg.Arena.Violations() != 0 {
		t.Fatal("protected node was freed")
	}
	// Unprotect; now a flush must free everything.
	hp.Protect(1, 0, arena.Nil)
	hp.Flush(0)
	if got := hp.Unreclaimed(); got != 0 {
		t.Fatalf("unreclaimed = %d after flush", got)
	}
}

func TestFFHPDefersYoungNodes(t *testing.T) {
	cfg := testConfig(1)
	cfg.R = 8
	cfg.Delta = 50 * time.Millisecond
	ff := NewFFHP(cfg)
	defer ff.Close()
	// Retire R-1 nodes: below threshold, nothing freed.
	for i := 0; i < cfg.R-1; i++ {
		ff.Retire(0, cfg.Arena.Alloc(0))
	}
	if got := ff.Unreclaimed(); got != cfg.R-1 {
		t.Fatalf("unreclaimed = %d, want %d", got, cfg.R-1)
	}
	// An explicit reclaim must not free anything: all nodes are younger
	// than Δ.
	ff.reclaim(0)
	if frees := cfg.Arena.Frees(); frees != 0 {
		t.Fatalf("reclaim freed %d nodes younger than Δ", frees)
	}
}

func TestFFHPRetireLoopFreesOnceEligible(t *testing.T) {
	cfg := testConfig(1)
	cfg.R = 8
	cfg.Delta = 3 * time.Millisecond
	ff := NewFFHP(cfg)
	defer ff.Close()
	start := time.Now()
	// Crossing R forces the retire loop, which per Figure 2b spins
	// reclaim() until below R — i.e. it waits out Δ.
	for i := 0; i < cfg.R; i++ {
		ff.Retire(0, cfg.Arena.Alloc(0))
	}
	if got := ff.Unreclaimed(); got >= cfg.R {
		t.Fatalf("retire loop exited with %d >= R", got)
	}
	if waited := time.Since(start); waited < cfg.Delta/2 {
		t.Fatalf("retire loop returned after %v — did not wait out Δ", waited)
	}
	_, loops, frees := ff.Scans(0)
	if loops == 0 || frees == 0 {
		t.Fatalf("loops=%d frees=%d", loops, frees)
	}
}

func TestFFHPAdaptedUsesBoard(t *testing.T) {
	board := ostick.NewBoard(2, time.Millisecond)
	defer board.Stop()
	cfg := testConfig(1)
	cfg.Board = board
	s := New(KindFFHPTicks, cfg)
	defer s.Close()
	if s.Name() != string(KindFFHPTicks) {
		t.Fatalf("name = %q", s.Name())
	}
	for i := 0; i < cfg.R; i++ {
		s.Retire(0, cfg.Arena.Alloc(0))
	}
	if got := s.Unreclaimed(); got >= cfg.R {
		t.Fatalf("adapted retire loop exited with %d >= R", got)
	}
}

func TestFFHPBoundImmediateFreesInstantly(t *testing.T) {
	cfg := testConfig(1)
	cfg.R = 4
	ff := NewFFHPBound(cfg, core.Immediate{})
	defer ff.Close()
	for i := 0; i < cfg.R; i++ {
		ff.Retire(0, cfg.Arena.Alloc(0))
	}
	if got := ff.Unreclaimed(); got != 0 {
		t.Fatalf("unreclaimed = %d with immediate bound", got)
	}
}

func TestConstrainedModeSkipsPointlessScans(t *testing.T) {
	// §4.2.1 constrained case (Δ > R > H): reclaim() must do no work
	// until the oldest H+1 retirees are past the bound.
	cfg := testConfig(1) // H = 3
	cfg.R = 8
	cfg.Delta = 40 * time.Millisecond
	ff := NewFFHP(cfg)
	defer ff.Close()
	ff.SetConstrainedMode(true)
	for i := 0; i < cfg.R-1; i++ {
		ff.Retire(0, cfg.Arena.Alloc(0))
	}
	ff.ReclaimNow(0)
	ff.ReclaimNow(0)
	if scans, _, _ := ff.Scans(0); scans != 0 {
		t.Fatalf("constrained reclaim scanned %d times before the bound passed", scans)
	}
	// Once the bound passes for the oldest H+1, scans resume and free.
	cfg2 := testConfig(1)
	cfg2.R = 8
	cfg2.Delta = time.Millisecond
	ff2 := NewFFHP(cfg2)
	defer ff2.Close()
	ff2.SetConstrainedMode(true)
	for i := 0; i < cfg2.R; i++ {
		ff2.Retire(0, cfg2.Arena.Alloc(0)) // the retire loop waits out Δ
	}
	if scans, _, frees := ff2.Scans(0); scans == 0 || frees == 0 {
		t.Fatalf("constrained reclaim never resumed: scans=%d frees=%d", scans, frees)
	}
}

func TestRCUStalledReaderBlocksReclamation(t *testing.T) {
	cfg := testConfig(2)
	r := NewRCU(cfg)
	defer r.Close()
	r.OpBegin(1, 0) // reader 1 enters and stalls
	for i := 0; i < 10; i++ {
		r.Retire(0, cfg.Arena.Alloc(0))
		r.OpEnd(0) // thread 0 keeps passing quiescent states
	}
	time.Sleep(10 * DefaultGracePeriod)
	if got := r.Unreclaimed(); got != 10 {
		t.Fatalf("RCU freed %d nodes while a reader was stalled", 10-got)
	}
	// Reader leaves; grace periods resume.
	r.OpEnd(1)
	deadline := time.Now().Add(2 * time.Second)
	for r.Unreclaimed() > 0 {
		r.OpEnd(0)
		r.OpEnd(1)
		if time.Now().After(deadline) {
			t.Fatalf("RCU never freed after reader left: %d", r.Unreclaimed())
		}
		time.Sleep(DefaultGracePeriod)
	}
}

func TestRCUOfflineUnblocks(t *testing.T) {
	cfg := testConfig(2)
	r := NewRCU(cfg)
	defer r.Close()
	r.Retire(0, cfg.Arena.Alloc(0))
	r.Offline(1) // thread 1 never ran; mark it offline
	deadline := time.Now().Add(2 * time.Second)
	for r.Unreclaimed() > 0 {
		r.OpEnd(0)
		if time.Now().After(deadline) {
			t.Fatal("offline thread still blocks grace periods")
		}
		time.Sleep(DefaultGracePeriod)
	}
}

func TestEBRActiveReaderBlocksAdvance(t *testing.T) {
	cfg := testConfig(2)
	e := NewEBR(cfg)
	defer e.Close()
	e.OpBegin(1, 0) // reader active in epoch 0
	for i := 0; i < 3*cfg.R; i++ {
		e.Retire(0, cfg.Arena.Alloc(0))
	}
	if frees := cfg.Arena.Frees(); frees != 0 {
		t.Fatalf("EBR freed %d nodes with a pinned reader", frees)
	}
	e.OpEnd(1)
	for i := 0; i < 8; i++ {
		e.OpBegin(1, 0)
		e.OpEnd(1)
		e.Retire(0, cfg.Arena.Alloc(0))
		e.tryAdvance(0)
	}
	e.Flush(0)
	if got := cfg.Arena.Frees(); got == 0 {
		t.Fatal("EBR never freed after reader left")
	}
}

func TestDTAFreesWhenNoOpsInFlight(t *testing.T) {
	cfg := testConfig(2)
	d := NewDTA(cfg)
	defer d.Close()
	d.Retire(0, cfg.Arena.Alloc(0))
	if got := d.Unreclaimed(); got != 0 {
		t.Fatalf("DTA kept %d nodes with no ops in flight", got)
	}
}

func TestDTAInFlightOpBlocksFrees(t *testing.T) {
	cfg := testConfig(2)
	d := NewDTA(cfg)
	defer d.Close()
	d.OpBegin(1, 0)
	time.Sleep(time.Millisecond) // ensure the retire is after op begin
	d.Retire(0, cfg.Arena.Alloc(0))
	if got := d.Unreclaimed(); got != 1 {
		t.Fatalf("DTA freed a node retired during an in-flight op")
	}
	d.OpEnd(1)
	d.Flush(0)
	if got := d.Unreclaimed(); got != 0 {
		t.Fatalf("DTA kept %d nodes after ops finished", got)
	}
}

func TestStackTrackAbortsOnConflict(t *testing.T) {
	cfg := testConfig(2)
	s := NewStackTrack(cfg)
	defer s.Close()
	s.OpBegin(0, 7)
	// Walk up to just before a split boundary: no restart.
	for i := 0; i < stSplitVisits-1; i++ {
		if s.Visit(0) {
			t.Fatal("unexpected restart before split boundary")
		}
	}
	// A conflicting update in the same shard, then the boundary visit.
	s.UpdateHint(1, 7)
	if !s.Visit(0) {
		t.Fatal("no restart despite conflicting update at split boundary")
	}
	_, aborts, _ := s.TxnStats(0)
	if aborts != 1 {
		t.Fatalf("aborts = %d", aborts)
	}
	s.OpEnd(0)
}

func TestStackTrackSplitsWithoutConflict(t *testing.T) {
	cfg := testConfig(1)
	s := NewStackTrack(cfg)
	defer s.Close()
	s.OpBegin(0, 3)
	for i := 0; i < 3*stSplitVisits; i++ {
		if s.Visit(0) {
			t.Fatal("restart without any conflict")
		}
	}
	s.OpEnd(0)
	_, _, splits := s.TxnStats(0)
	if splits != 3 {
		t.Fatalf("splits = %d, want 3", splits)
	}
}

func TestLeakyNeverFrees(t *testing.T) {
	cfg := testConfig(1)
	l := NewLeaky(cfg)
	defer l.Close()
	for i := 0; i < 5; i++ {
		l.Retire(0, cfg.Arena.Alloc(0))
	}
	l.Flush(0)
	if got := l.Unreclaimed(); got != 5 {
		t.Fatalf("unreclaimed = %d", got)
	}
	if cfg.Arena.Frees() != 0 {
		t.Fatal("leaky scheme freed something")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Threads: 0, K: 1, R: 10, Arena: arena.New(8, 1)},
		{Threads: 1, K: 1, R: 1, Arena: arena.New(8, 1)}, // R <= H
		{Threads: 1, K: 1, R: 10},                        // nil arena
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", bad)
				}
			}()
			NewHP(bad)
		}()
	}
}

func TestPlistMapAblationStillCorrect(t *testing.T) {
	cfg := testConfig(2)
	hp := NewHP(cfg)
	defer hp.Close()
	hp.SetPlistMap(true)
	h := cfg.Arena.Alloc(0)
	hp.Protect(1, 2, h)
	for i := 0; i < cfg.R+1; i++ {
		hp.Retire(0, cfg.Arena.Alloc(0))
	}
	hp.Retire(0, h)
	hp.reclaim(0)
	_ = cfg.Arena.Key(h)
	if cfg.Arena.Violations() != 0 {
		t.Fatal("map-based plist freed a protected node")
	}
}

func TestRCUOfflineIdempotent(t *testing.T) {
	cfg := testConfig(2)
	r := NewRCU(cfg)
	defer r.Close()
	r.Retire(0, cfg.Arena.Alloc(0))
	r.Offline(1)
	r.Offline(1) // double offline must not wrap the counter
	deadline := time.Now().Add(2 * time.Second)
	for r.Unreclaimed() > 0 {
		r.OpEnd(0)
		if time.Now().After(deadline) {
			t.Fatal("grace periods frozen after double Offline")
		}
		time.Sleep(DefaultGracePeriod)
	}
}

func TestHPVerifyAccounting(t *testing.T) {
	cfg := testConfig(2)
	hp := NewHP(cfg)
	defer hp.Close()
	// Thread 1 protects three of the ten nodes thread 0 retires, so a
	// flush frees seven and leaves three pending.
	for i := 0; i < 10; i++ {
		h := cfg.Arena.Alloc(0)
		if i < cfg.K {
			hp.Protect(1, i, h)
		}
		hp.Retire(0, h)
	}
	hp.Flush(0)
	if err := hp.VerifyAccounting(); err != nil {
		t.Fatalf("balanced books flagged: %v", err)
	}
	hp.perTh[0].rcount.Add(-1) // lose a pending node
	err := hp.VerifyAccounting()
	if err == nil {
		t.Fatal("lost node not flagged")
	}
	for _, want := range []string{"frees 7", "unreclaimed 2", "retires 10"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
