package fuzz

import (
	"reflect"
	"testing"

	"tbtso/internal/mc"
)

func TestGenDeterministic(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		a := Gen(GenConfig{}, seed)
		b := Gen(GenConfig{}, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestGeneratorReuse: one generator, reseeded across seeds and
// alternating configurations as a campaign worker's is, builds exactly
// the programs fresh Gen calls build.
func TestGeneratorReuse(t *testing.T) {
	cfgs := []GenConfig{{}, {MaxThreads: 3, Vars: 5, MaxTotalOps: 14, MaxOps: 7}}
	var g generator
	for seed := int64(0); seed < 60; seed++ {
		for _, cfg := range cfgs {
			if got, want := g.gen(cfg, seed), Gen(cfg, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %+v: reused generator built %v, Gen %v", seed, cfg, got, want)
			}
		}
	}
}

func TestGenShape(t *testing.T) {
	cfg := GenConfig{}.orDefault()
	for seed := int64(0); seed < 400; seed++ {
		p := Gen(GenConfig{}, seed)
		if len(p.Threads) < 1 || len(p.Threads) > cfg.MaxThreads {
			t.Fatalf("seed %d: %d threads", seed, len(p.Threads))
		}
		total := 0
		for ti, th := range p.Threads {
			if len(th) > cfg.MaxOps {
				t.Fatalf("seed %d thread %d: %d ops > MaxOps", seed, ti, len(th))
			}
			total += len(th)
			for _, op := range th {
				switch op.Kind {
				case mc.OpStore, mc.OpRMW:
					if op.Addr < 0 || op.Addr >= cfg.Vars || op.Val < 1 || op.Val > cfg.MaxVal {
						t.Fatalf("seed %d: bad store/rmw %+v", seed, op)
					}
				case mc.OpLoad:
					if op.Addr < 0 || op.Addr >= cfg.Vars || op.Reg < 0 || op.Reg >= cfg.Regs {
						t.Fatalf("seed %d: bad load %+v", seed, op)
					}
				case mc.OpWait:
					if op.Val < 0 || op.Val > cfg.MaxWait {
						t.Fatalf("seed %d: bad wait %+v", seed, op)
					}
				}
				if op.Kind == mc.OpRMW && op.Reg >= cfg.Regs {
					t.Fatalf("seed %d: rmw reg out of range %+v", seed, op)
				}
			}
		}
		if total > cfg.MaxTotalOps {
			t.Fatalf("seed %d: %d total ops > MaxTotalOps", seed, total)
		}
	}
}

// TestGenCoversVocabulary: across a modest seed range every op kind
// (and a cloned-thread program) must appear — the fuzzer is only as
// good as the behaviours its corpus reaches.
func TestGenCoversVocabulary(t *testing.T) {
	seen := map[mc.OpKind]bool{}
	clones, multiThread := false, false
	for seed := int64(0); seed < 300; seed++ {
		p := Gen(GenConfig{}, seed)
		if len(p.Threads) > 1 {
			multiThread = true
		}
		for i, th := range p.Threads {
			for _, op := range th {
				seen[op.Kind] = true
			}
			for j := 0; j < i; j++ {
				if len(th) > 0 && reflect.DeepEqual(th, p.Threads[j]) {
					clones = true
				}
			}
		}
	}
	for _, k := range []mc.OpKind{mc.OpStore, mc.OpLoad, mc.OpFence, mc.OpRMW, mc.OpWait} {
		if !seen[k] {
			t.Errorf("op kind %d never generated", k)
		}
	}
	if !clones {
		t.Error("no cloned threads generated (symmetry reduction never exercised)")
	}
	if !multiThread {
		t.Error("no multi-threaded programs generated")
	}
}
