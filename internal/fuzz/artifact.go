package fuzz

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"tbtso/internal/mc"
	"tbtso/internal/tso"
)

// Artifact is a reproducible counterexample: the shrunk mismatch plus
// everything needed to replay it — the original generator seed, the
// minimized program, and the exact machine run. obs.WriteDoc/ReadArtifact
// round-trip it; GoSource renders it as a litmus-test function.
type Artifact struct {
	Kind     string     `json:"kind"`
	Seed     int64      `json:"seed"`
	Delta    int        `json:"delta"`
	Cover    int        `json:"cover,omitempty"`
	Policy   string     `json:"policy,omitempty"`
	MachSeed int64      `json:"mach_seed,omitempty"`
	Outcome  string     `json:"outcome,omitempty"`
	Detail   string     `json:"detail,omitempty"`
	Program  mc.Program `json:"program"`
	// Original is the unshrunk program, kept so a suspect shrinker can
	// never hide the bug it started from.
	Original       mc.Program `json:"original"`
	ShrinkSteps    int        `json:"shrink_steps"`
	ShrinkAttempts int        `json:"shrink_attempts"`
}

// NewArtifact packages a (possibly shrunk) mismatch.
func NewArtifact(m Mismatch, shrunk Candidate, sr ShrinkResult) Artifact {
	return Artifact{
		Kind:     m.Kind,
		Seed:     m.Seed,
		Delta:    shrunk.Delta,
		Cover:    CoverDelta(shrunk.Program, MachineDelta(shrunk.Delta)),
		Policy:   m.Policy.String(),
		MachSeed: m.MachSeed,
		Outcome:  m.Outcome,
		Detail:   m.Detail,
		Program:  shrunk.Program,
		Original: m.Program,

		ShrinkSteps:    sr.Steps,
		ShrinkAttempts: sr.Attempts,
	}
}

// ReadArtifact loads the artifact JSON at path (written with
// obs.WriteDoc), rejecting a malformed program.
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

// Replay re-runs the artifact's differential check on its shrunk
// program and reports whether the mismatch still reproduces. For
// sampled-outcome artifacts the exact (policy, machine seed) run is
// repeated; other kinds re-run the full sweep at the artifact's Δ.
func (a Artifact) Replay() (bool, error) {
	if a.Kind == KindFlagViolation {
		o, err := FindViolation(a.Program, a.Delta, 0)
		return o != "", err
	}
	cfg := Config{Deltas: []int{a.Delta}}.orDefault()
	if a.Kind == KindSampledOutcome {
		pol, err := ParsePolicy(a.Policy)
		if err != nil {
			return false, err
		}
		cfg.Policies = []tso.DrainPolicy{pol}
	}
	rep := CheckProgram(cfg, a.Program, a.Seed)
	return len(rep.Mismatches) > 0, nil
}

// ParsePolicy is the inverse of tso.DrainPolicy.String.
func ParsePolicy(s string) (tso.DrainPolicy, error) {
	for _, p := range []tso.DrainPolicy{tso.DrainRandom, tso.DrainEager, tso.DrainAdversarial} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("fuzz: unknown drain policy %q", s)
}

// GoSource renders the artifact's shrunk program as a self-contained Go
// litmus-test function over the mc package — paste-ready for a
// regression suite. name is the function suffix (TestFuzz<name>).
func (a Artifact) GoSource(name string) string {
	p := a.Program
	var b strings.Builder
	fmt.Fprintf(&b, "// Shrunk by tbtso-fuzz: %s at Δ=%d (seed %d", a.Kind, a.Delta, a.Seed)
	if a.Kind == KindSampledOutcome {
		fmt.Fprintf(&b, ", policy %s, machine seed %d, outcome %q", a.Policy, a.MachSeed, a.Outcome)
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
	case KindSampledOutcome:
		fmt.Fprintf(&b, "\tres := mc.Explore(p, %d)\n", a.Cover)
		fmt.Fprintf(&b, "\tif res.Has(%q) {\n\t\tt.Fatalf(\"outcome admitted; the machine/checker divergence is fixed on one side only\")\n\t}\n", a.Outcome)
	case KindFlagViolation:
		fmt.Fprintf(&b, "\tres := mc.Explore(p, %d)\n", a.Delta)
		fmt.Fprintf(&b, "\tif res.Has(%q) {\n\t\tt.Fatalf(\"flag-principle violation admitted: wait inadequate for Δ=%d\")\n\t}\n", a.Outcome, a.Delta)
	default:
		fmt.Fprintf(&b, "\tseq, _ := mc.ExploreSequentialBounded(p, %d, mc.DefaultMaxStates)\n", a.Delta)
		fmt.Fprintf(&b, "\tpar := mc.Explore(p, %d)\n", a.Delta)
		b.WriteString("\tif len(seq.Outcomes) != len(par.Outcomes) {\n\t\tt.Fatalf(\"engines diverge: %d vs %d outcomes\", len(seq.Outcomes), len(par.Outcomes))\n\t}\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// PerfettoTrace replays the artifact's machine run with an attached
// Perfetto exporter and writes the Chrome trace-event JSON, giving the
// counterexample a visual timeline (store→commit flows included). Only
// meaningful for sampled-outcome and machine-error artifacts, which
// name a concrete machine run; a machine-error trace ends at the
// failure.
func (a Artifact) PerfettoTrace(w io.Writer) error {
	pol, err := ParsePolicy(a.Policy)
	if err != nil {
		return err
	}
	pf, err := TraceRun(a.Program, MachineRun{Delta: MachineDelta(a.Delta), Policy: pol, Seed: a.MachSeed})
	if err != nil && a.Kind != KindMachineError {
		return err
	}
	return pf.WriteJSON(w)
}
