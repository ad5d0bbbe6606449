package fuzz

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

// Artifact is a reproducible counterexample: the shrunk mismatch plus
// everything needed to replay it — the original generator seed, the
// minimized program, and the exact machine run. obs.WriteDoc/ReadArtifact
// round-trip it; GoSource renders it as a litmus-test function.
type Artifact struct {
	// Mismatch is the shrunk record: its Delta, Cover and Program are
	// the minimized candidate's.
	Mismatch
	// Original is the unshrunk program, kept so a suspect shrinker can
	// never hide the bug it started from.
	Original       mc.Program `json:"original"`
	ShrinkSteps    int        `json:"shrink_steps"`
	ShrinkAttempts int        `json:"shrink_attempts"`
}

// NewArtifact packages a (possibly shrunk) mismatch.
func NewArtifact(m Mismatch, shrunk Candidate, sr ShrinkResult) Artifact {
	a := Artifact{Mismatch: m, Original: m.Program, ShrinkSteps: sr.Steps, ShrinkAttempts: sr.Attempts}
	a.Delta = shrunk.Delta
	a.Cover = CoverDelta(shrunk.Program, MachineDelta(shrunk.Delta))
	a.Program = shrunk.Program
	return a
}

// ReadArtifact loads the artifact JSON at path (written with
// obs.WriteDoc), rejecting a malformed program or an unknown policy.
func ReadArtifact(path string) (Artifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, err
	}
	var a Artifact
	if err := json.Unmarshal(blob, &a); err != nil {
		return Artifact{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return a, nil
}

// Replay re-runs the artifact's check on its shrunk program and reports
// whether it still finds a mismatch of the artifact's kind. A
// machine-error artifact repeats its recorded machine run, which must
// fault again; a sampled-outcome artifact repeats its recorded run
// under the campaign's verdict (checkRun), which must reject it again;
// an engine divergence re-runs the full sweep at the artifact's Δ. The
// two machine kinds fail without a schedule.
func (a Artifact) Replay() (bool, error) { return a.replay(NewSampler()) }

// replay is Replay on the machine runs of s.
func (a Artifact) replay(s sampler) (bool, error) {
	switch a.Kind {
	case KindFlagViolation:
		o, err := FindViolation(a.Program, a.Delta, 0)
		return o != "", err
	case KindEngineDivergence:
		rep := CheckProgram(Config{Deltas: []int{a.Delta}}, a.Program, a.Seed)
		return slices.ContainsFunc(rep.Mismatches, func(m Mismatch) bool { return m.Kind == a.Kind }), nil
	case KindMachineError, KindSampledOutcome:
		run, err := a.machineRun()
		if err != nil {
			return false, err
		}
		if a.Kind == KindMachineError {
			_, _, err := s.sample(a.Program, run)
			return err != nil, nil
		}
		var exact mc.Result
		if a.Cover == 0 {
			exact, err = mc.ExploreParallel(a.Program, 0, mc.Options{MaxStates: Config{}.orDefault().MaxStates})
			if err != nil {
				return false, err
			}
		}
		_, _, admitted, err := checkRun(s, a.Program, a.Cover, exact, run)
		return err == nil && !admitted, nil
	}
	return false, fmt.Errorf("fuzz: unknown mismatch kind %q", a.Kind)
}

// ParsePolicy parses a drain policy name (tso.DrainPolicy.UnmarshalText).
func ParsePolicy(s string) (p tso.DrainPolicy, err error) {
	err = p.UnmarshalText([]byte(s))
	return p, err
}

// GoSource renders the artifact's shrunk program as a self-contained Go
// litmus-test function over the mc package — paste-ready for a
// regression suite. name is the function suffix (TestFuzz<name>).
func (a Artifact) GoSource(name string) string {
	p := a.Program
	var b strings.Builder
	fmt.Fprintf(&b, "// Shrunk by tbtso-fuzz: %s at Δ=%d (seed %d", a.Kind, a.Delta, a.Seed)
	if a.Kind != KindFlagViolation && a.Schedule != nil {
		fmt.Fprintf(&b, ", policy %s, machine seed %d", a.Policy, a.MachSeed)
	}
	if a.Kind == KindSampledOutcome {
		fmt.Fprintf(&b, ", outcome %q", a.Outcome)
	}
	fmt.Fprintf(&b, ").\nfunc TestFuzz%s(t *testing.T) {\n", name)
	fmt.Fprintf(&b, "\tp := mc.Program{\n\t\tThreads: [][]mc.Op{\n")
	for _, th := range p.Threads {
		b.WriteString("\t\t\t{")
		for i, op := range th {
			if i > 0 {
				b.WriteString(", ")
			}
			switch op.Kind {
			case mc.OpStore:
				fmt.Fprintf(&b, "mc.St(%d, %d)", op.Addr, op.Val)
			case mc.OpLoad:
				fmt.Fprintf(&b, "mc.Ld(%d, %d)", op.Addr, op.Reg)
			case mc.OpFence:
				b.WriteString("mc.Fence()")
			case mc.OpRMW:
				fmt.Fprintf(&b, "mc.RMW(%d, %d, %d)", op.Addr, op.Val, op.Reg)
			case mc.OpWait:
				fmt.Fprintf(&b, "mc.Wait(%d)", op.Val)
			}
		}
		b.WriteString("},\n")
	}
	fmt.Fprintf(&b, "\t\t},\n\t\tVars: %d, Regs: %d,\n\t}\n", p.Vars, p.Regs)
	switch a.Kind {
	case KindFlagViolation:
		fmt.Fprintf(&b, "\tres := mc.Explore(p, %d)\n", a.Delta)
		fmt.Fprintf(&b, "\tif res.Has(%q) {\n\t\tt.Fatalf(\"flag-principle violation admitted: wait inadequate for Δ=%d\")\n\t}\n", a.Outcome, a.Delta)
	case KindMachineError, KindSampledOutcome:
		run, err := a.machineRun()
		if err != nil {
			fmt.Fprintf(&b, "\tt.Fatal(%q)\n", err.Error())
			break
		}
		pol := run.Policy.String()
		fmt.Fprintf(&b, "\trun := fuzz.MachineRun{Delta: %d, Policy: tso.Drain%s, Seed: %d}\n",
			run.Delta, strings.ToUpper(pol[:1])+pol[1:], run.Seed)
		switch {
		case a.Kind == KindMachineError:
			b.WriteString("\tif _, err := fuzz.RunOnMachine(p, run); err != nil {\n\t\tt.Fatalf(\"machine faults on the recorded schedule: %v\", err)\n\t}\n")
		case a.Cover == 0:
			b.WriteString("\tout, err := fuzz.RunOnMachine(p, run)\n\tif err != nil {\n\t\tt.Fatal(err)\n\t}\n")
			b.WriteString("\tif !mc.Explore(p, 0).Has(out) {\n\t\tt.Fatalf(\"the recorded run's outcome %q is not admitted at Δ=0\", out)\n\t}\n")
		default:
			fmt.Fprintf(&b, "\tif _, _, ok, err := fuzz.NewSampler().SampleWitness(p, run, %d); err != nil || !ok {\n", a.Cover)
			fmt.Fprintf(&b, "\t\tt.Fatalf(\"the recorded run is no checker path at Δ=%d (err %%v)\", err)\n\t}\n", a.Cover)
		}
	default:
		fmt.Fprintf(&b, "\tseq, err := mc.ExploreSequentialBounded(p, %d, mc.DefaultMaxStates)\n", a.Delta)
		b.WriteString("\tif err != nil {\n\t\tt.Fatal(err)\n\t}\n")
		fmt.Fprintf(&b, "\tpar := mc.Explore(p, %d)\n", a.Delta)
		b.WriteString("\tif !maps.Equal(seq.Outcomes, par.Outcomes) {\n\t\tt.Fatalf(\"engines diverge:\\n seq %v\\n par %v\", seq.List(), par.List())\n\t}\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// PerfettoTrace replays the artifact's machine run with an attached
// Perfetto exporter and writes the Chrome trace-event JSON, giving the
// counterexample a visual timeline (store→commit flows included). It
// needs a schedule, so it fails for engine divergences and for flag
// violations no machine run exhibited; a machine-error trace ends at
// the failure.
func (a Artifact) PerfettoTrace(w io.Writer) error {
	run, err := a.machineRun()
	if err != nil {
		return err
	}
	pf, err := TraceRun(a.Program, run)
	if err != nil && a.Kind != KindMachineError {
		return err
	}
	return pf.WriteJSON(w)
}
