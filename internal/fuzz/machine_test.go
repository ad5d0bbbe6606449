package fuzz

import (
	"reflect"
	"testing"

	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

var sb = mc.Program{
	Threads: [][]mc.Op{
		{mc.St(0, 1), mc.Ld(1, 0)},
		{mc.St(1, 1), mc.Ld(0, 0)},
	},
	Vars: 2, Regs: 1,
}

func TestRunOnMachineDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		run := MachineRun{Delta: 8, Policy: tso.DrainRandom, Seed: seed}
		a, err := RunOnMachine(sb, run)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunOnMachine(sb, run)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("seed %d: %q vs %q", seed, a, b)
		}
	}
}

// TestRunOnMachineAdversarialSB: under plain TSO with the adversarial
// policy, store buffering must actually manifest — both SB threads read
// 0. If it doesn't, the machine side of the differential test is too
// weak to catch anything.
func TestRunOnMachineAdversarialSB(t *testing.T) {
	out, err := RunOnMachine(sb, MachineRun{Delta: 0, Policy: tso.DrainAdversarial, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := "T0:r0=0 T1:r0=0"; out != want {
		t.Fatalf("adversarial SB outcome %q, want %q", out, want)
	}
}

// TestSampleAllocs pins the sampling hot path: a reused Sampler
// allocates only the returned outcome string per call, at Δ 0 and at
// the small bounds campaigns sweep.
func TestSampleAllocs(t *testing.T) {
	s := NewSampler()
	for _, delta := range []uint64{0, 3} {
		run := MachineRun{Delta: delta, Policy: tso.DrainRandom, Seed: 7}
		sample := func() {
			if _, _, err := s.Sample(sb, run); err != nil {
				t.Fatal(err)
			}
		}
		sample() // warm-up: size the machine and scratch
		if allocs := testing.AllocsPerRun(100, sample); allocs > 1 {
			t.Fatalf("Δ=%d: %v allocs per Sample, want at most 1 (the outcome string)", delta, allocs)
		}
	}
}

// TestCheckRunAllocs pins the containment verdict: a reused Sampler's
// run is tested against the exploration's set at Δ 0, or replayed as a
// path at the cover above it, without rendering its outcome as a
// string, so an admitted run allocates nothing; only a run that is not
// admitted returns (and pays for) its outcome.
func TestCheckRunAllocs(t *testing.T) {
	exact, err := mc.ExploreParallel(sb, 0, mc.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler()
	for _, delta := range []uint64{0, 3} {
		run := MachineRun{Delta: delta, Policy: tso.DrainRandom, Seed: 7}
		cover := CoverDelta(sb, delta)
		check := func() {
			if outcome, _, admitted, err := checkRun(s, sb, cover, exact, run); err != nil || !admitted || outcome != "" {
				t.Fatalf("Δ=%d: admitted %v, outcome %q, err %v; want an admitted run and no outcome", delta, admitted, outcome, err)
			}
		}
		check() // warm-up: size the machine and scratch
		if allocs := testing.AllocsPerRun(100, check); allocs != 0 {
			t.Fatalf("Δ=%d: %v allocs per admitted check, want 0", delta, allocs)
		}
	}
	run := MachineRun{Policy: tso.DrainRandom, Seed: 7}
	want, _, _ := s.Sample(sb, run)
	outcome, _, admitted, err := checkRun(s, sb, 0, mc.Result{Outcomes: map[string]bool{}}, run)
	if err != nil || admitted || outcome != want {
		t.Fatalf("run outside the set: admitted %v, outcome %q, err %v; want rejected with outcome %q", admitted, outcome, err, want)
	}
}

func TestCoverDelta(t *testing.T) {
	if got := CoverDelta(sb, 0); got != 0 {
		t.Fatalf("unbounded cover = %d, want 0", got)
	}
	if got := CoverDelta(sb, 3); got != (3+1)*2+2 {
		t.Fatalf("cover(Δ=3, 2 threads) = %d", got)
	}
}

// TestRunOnMachineRMWSemantics: the machine's FetchAdd must return the
// OLD value into the register, matching mc.OpRMW — a classic spot for
// the two models to drift apart silently.
func TestRunOnMachineRMWSemantics(t *testing.T) {
	p := mc.Program{
		Threads: [][]mc.Op{{mc.St(0, 5), mc.Fence(), mc.RMW(0, 2, 0), mc.Ld(0, 1)}},
		Vars:    1, Regs: 2,
	}
	out, err := RunOnMachine(p, MachineRun{Delta: 4, Policy: tso.DrainEager, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := "T0:r0=5 T0:r1=7"; out != want {
		t.Fatalf("RMW outcome %q, want %q", out, want)
	}
	res, err := mc.ExploreParallel(p, CoverDelta(p, 4), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Has(out) {
		t.Fatalf("checker does not admit the machine's RMW outcome %q: %v", out, res.List())
	}
}

// TestCoverFormerlyTruncated freezes the covering-Δ outcome sets of two
// programs, seeds 49 and 983 of the math/rand corpus (the generator's
// stream before math/rand/v2), whose cover explorations take 227,394
// and 259,094 states, more than the campaign's 200k-state budget. The
// campaign no longer explores at the cover (Δ > 0 samples replay as
// checker paths), so the explorations run at mc.DefaultMaxStates and
// must reach exactly the golden outcomes, computed at a 3M budget.
func TestCoverFormerlyTruncated(t *testing.T) {
	const zero = "T0:r0=0 T0:r1=0 T0:r2=0 T0:r3=0 T1:r0=0 T1:r1=0 T1:r2=0 T1:r3=0 "
	cases := []struct {
		seed  int64
		p     mc.Program
		cover int
		want  []string
	}{
		{49, mc.Program{Vars: 3, Regs: 4, Threads: [][]mc.Op{
			{mc.St(2, 3), mc.St(2, 2), mc.St(2, 2)},
			{mc.St(2, 3), mc.St(2, 2), mc.St(2, 2)},
			{mc.Ld(1, 0)},
			{mc.Wait(2), mc.St(0, 1)},
		}}, 18, []string{zero + "T2:r0=0 T2:r1=0 T2:r2=0 T2:r3=0 T3:r0=0 T3:r1=0 T3:r2=0 T3:r3=0"}},
		{983, mc.Program{Vars: 3, Regs: 4, Threads: [][]mc.Op{
			{mc.St(1, 3), mc.St(2, 1), mc.St(1, 2)},
			{mc.St(1, 3), mc.St(2, 1), mc.St(1, 2)},
			{mc.Ld(1, 0), mc.Ld(1, 1), mc.St(2, 1), mc.Ld(2, 2)},
		}}, 14, []string{
			zero + "T2:r0=0 T2:r1=0 T2:r2=1 T2:r3=0",
			zero + "T2:r0=0 T2:r1=2 T2:r2=1 T2:r3=0",
			zero + "T2:r0=0 T2:r1=3 T2:r2=1 T2:r3=0",
			zero + "T2:r0=2 T2:r1=2 T2:r2=1 T2:r3=0",
			zero + "T2:r0=2 T2:r1=3 T2:r2=1 T2:r3=0",
			zero + "T2:r0=3 T2:r1=2 T2:r2=1 T2:r3=0",
			zero + "T2:r0=3 T2:r1=3 T2:r2=1 T2:r3=0",
		}},
	}
	for _, c := range cases {
		cover := CoverDelta(c.p, 3)
		if cover != c.cover {
			t.Fatalf("seed %d: cover Δ %d, want %d", c.seed, cover, c.cover)
		}
		res, err := mc.ExploreParallel(c.p, cover, mc.Options{MaxStates: mc.DefaultMaxStates})
		if err != nil {
			t.Fatalf("seed %d Δ=%d: %v", c.seed, cover, err)
		}
		if got := res.List(); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("seed %d Δ=%d: outcomes diverge\n got: %v\nwant: %v", c.seed, cover, got, c.want)
		}
	}
}
