package fuzz

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"tbtso/internal/obs"
)

// TestPlantedControls is the fuzzer's end-to-end validation: both
// known-bad negative controls — fence-free hazard pointers under plain
// TSO and a biased lock whose wait is inadequate for the bound — must
// be detected, shrink to a litmus-sized witness (≤ 8 ops across ≤ 2
// threads), and replay from the serialized artifact.
func TestPlantedControls(t *testing.T) {
	for _, pl := range PlantedControls() {
		pl := pl
		t.Run(pl.Name, func(t *testing.T) {
			a, err := CheckPlanted(pl, 500_000, 3_000)
			if err != nil {
				t.Fatal(err)
			}
			p := a.Program
			ops := 0
			for _, th := range p.Threads {
				ops += len(th)
			}
			if ops > 8 || len(p.Threads) > 2 {
				t.Fatalf("under-shrunk: %d ops across %d threads (%d shrink steps): %+v",
					ops, len(p.Threads), a.ShrinkSteps, p)
			}
			if a.ShrinkSteps == 0 {
				t.Fatal("shrinker accepted nothing on an 18-op control")
			}
			if a.Schedule == nil {
				t.Fatal("no machine schedule exhibits the shrunk violation")
			}

			// The artifact must survive serialization and still reproduce.
			path := filepath.Join(t.TempDir(), pl.Name+".json")
			if _, err := obs.WriteDoc(path, a); err != nil {
				t.Fatal(err)
			}
			back, err := ReadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			repro, err := back.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if !repro {
				t.Fatal("round-tripped artifact does not reproduce the violation")
			}

			src := back.GoSource(strings.ToUpper(pl.Name[:4]))
			for _, want := range []string{"func TestFuzz", "mc.Program{", a.Outcome} {
				if !strings.Contains(src, want) {
					t.Fatalf("GoSource missing %q:\n%s", want, src)
				}
			}

			var trace bytes.Buffer
			if err := back.PerfettoTrace(&trace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(trace.Bytes(), []byte("traceEvents")) {
				t.Fatalf("Perfetto trace missing traceEvents: %.120s", trace.String())
			}
		})
	}
}

// TestGoSourceCanFail: the regression test GoSource renders for an
// engine divergence compares the two outcome sets, not their sizes, and
// the one for a machine error replays the recorded schedule and fails
// on its error — an engine comparison cannot see a machine fault. The
// one for a sampled outcome replays the recorded run too, and fails
// while the campaign's verdict rejects it: above Δ 0 the run is no
// checker path at the cover (whose exploration may admit its outcome),
// at Δ 0 its outcome is outside the exploration's set.
func TestGoSourceCanFail(t *testing.T) {
	atZero := sampleMismatches()[0]
	atZero.Delta, atZero.Cover = 0, 0
	for _, c := range []struct {
		a       Artifact
		want    []string
		notWant string
	}{
		{
			a:       Artifact{Mismatch: sampleMismatches()[1]},
			want:    []string{"mc.ExploreSequentialBounded(p, 0, mc.DefaultMaxStates)", "if !maps.Equal(seq.Outcomes, par.Outcomes) {"},
			notWant: "len(seq.Outcomes)",
		},
		{
			a: Artifact{Mismatch: sampleMismatches()[2]},
			want: []string{
				"(seed 44, policy eager, machine seed 1)",
				"run := fuzz.MachineRun{Delta: 3, Policy: tso.DrainEager, Seed: 1}",
				"if _, err := fuzz.RunOnMachine(p, run); err != nil {",
			},
			notWant: "mc.Explore",
		},
		{
			a: Artifact{Mismatch: sampleMismatches()[0]},
			want: []string{
				`outcome "r0=1 r1=0"`,
				"run := fuzz.MachineRun{Delta: 1, Policy: tso.DrainAdversarial, Seed: 3}",
				"if _, _, ok, err := fuzz.NewSampler().SampleWitness(p, run, 9); err != nil || !ok {",
			},
			notWant: "mc.Explore",
		},
		{
			a: Artifact{Mismatch: atZero},
			want: []string{
				"run := fuzz.MachineRun{Delta: 0, Policy: tso.DrainAdversarial, Seed: 3}",
				"out, err := fuzz.RunOnMachine(p, run)",
				"if !mc.Explore(p, 0).Has(out) {",
			},
			notWant: "SampleWitness",
		},
	} {
		src := c.a.GoSource("Case")
		for _, want := range c.want {
			if !strings.Contains(src, want) {
				t.Errorf("%s: GoSource missing %q:\n%s", c.a.Kind, want, src)
			}
		}
		if strings.Contains(src, c.notWant) {
			t.Errorf("%s: GoSource contains %q:\n%s", c.a.Kind, c.notWant, src)
		}
	}
}

// TestFlagViolationMatchesMachalgWitnesses pins the generic detector to
// machalg's hand-indexed ones on the original (unshrunk) programs: it
// must fire on the planted configurations and stay silent on the
// provably safe ones.
func TestFlagViolationMatchesMachalgWitnesses(t *testing.T) {
	for _, c := range []struct {
		name  string
		pl    Planted
		delta int
		want  bool
	}{
		{"ffhp-unsafe", PlantedControls()[0], 0, true},
		{"ffhp-safe", PlantedControls()[0], 3, false}, // wait 4 is adequate for Δ=3
		{"ffbl-unsafe", PlantedControls()[1], 10, true},
	} {
		o, err := FindViolation(c.pl.Program, c.delta, 500_000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := o != ""; got != c.want {
			t.Errorf("%s: violation found=%v (outcome %q), want %v", c.name, got, o, c.want)
		}
	}
}
