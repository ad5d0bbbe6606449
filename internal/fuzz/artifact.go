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

// OpJSON is one instruction in the artifact's stable wire form.
type OpJSON struct {
	Kind string `json:"kind"`
	Addr int    `json:"addr,omitempty"`
	Val  int    `json:"val,omitempty"`
	Reg  int    `json:"reg,omitempty"`
}

// ProgramJSON is mc.Program in the artifact's stable wire form.
type ProgramJSON struct {
	Vars    int        `json:"vars"`
	Regs    int        `json:"regs"`
	Threads [][]OpJSON `json:"threads"`
}

var kindNames = map[mc.OpKind]string{
	mc.OpStore: "st", mc.OpLoad: "ld", mc.OpFence: "fence", mc.OpRMW: "rmw", mc.OpWait: "wait",
}

// EncodeProgram converts to the wire form.
func EncodeProgram(p mc.Program) ProgramJSON {
	pj := ProgramJSON{Vars: p.Vars, Regs: p.Regs}
	for _, th := range p.Threads {
		ops := make([]OpJSON, len(th))
		for i, op := range th {
			ops[i] = OpJSON{Kind: kindNames[op.Kind], Addr: op.Addr, Val: op.Val, Reg: op.Reg}
		}
		pj.Threads = append(pj.Threads, ops)
	}
	return pj
}

// DecodeProgram converts back from the wire form.
func DecodeProgram(pj ProgramJSON) (mc.Program, error) {
	p := mc.Program{Vars: pj.Vars, Regs: pj.Regs}
	for ti, th := range pj.Threads {
		ops := make([]mc.Op, len(th))
		for i, op := range th {
			kind := mc.OpKind(-1)
			for k, n := range kindNames {
				if n == op.Kind {
					kind = k
				}
			}
			if kind < 0 {
				return mc.Program{}, fmt.Errorf("fuzz: thread %d op %d: unknown kind %q", ti, i, op.Kind)
			}
			ops[i] = mc.Op{Kind: kind, Addr: op.Addr, Val: op.Val, Reg: op.Reg}
		}
		p.Threads = append(p.Threads, ops)
	}
	return p, nil
}

// Artifact is a reproducible counterexample: the shrunk mismatch plus
// everything needed to replay it — the original generator seed, the
// minimized program, and the exact machine run. obs.WriteDoc/ReadArtifact
// round-trip it; GoSource renders it as a litmus-test function.
type Artifact struct {
	Kind     string      `json:"kind"`
	Seed     int64       `json:"seed"`
	Delta    int         `json:"delta"`
	Cover    int         `json:"cover,omitempty"`
	Policy   string      `json:"policy,omitempty"`
	MachSeed int64       `json:"mach_seed,omitempty"`
	Outcome  string      `json:"outcome,omitempty"`
	Detail   string      `json:"detail,omitempty"`
	Program  ProgramJSON `json:"program"`
	// Original is the unshrunk program, kept so a suspect shrinker can
	// never hide the bug it started from.
	Original       ProgramJSON `json:"original,omitempty"`
	ShrinkSteps    int         `json:"shrink_steps"`
	ShrinkAttempts int         `json:"shrink_attempts"`
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
		Program:  EncodeProgram(shrunk.Program),
		Original: EncodeProgram(m.Program),

		ShrinkSteps:    sr.Steps,
		ShrinkAttempts: sr.Attempts,
	}
}

// ReadArtifact loads the artifact JSON at path (written with
// obs.WriteDoc).
func ReadArtifact(path string) (Artifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, err
	}
	var a Artifact
	if err := json.Unmarshal(blob, &a); err != nil {
		return Artifact{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	if _, err := DecodeProgram(a.Program); err != nil {
		return Artifact{}, err
	}
	return a, nil
}

// Replay re-runs the artifact's differential check on its shrunk
// program and reports whether the mismatch still reproduces. For
// sampled-outcome artifacts the exact (policy, machine seed) run is
// repeated; other kinds re-run the full sweep at the artifact's Δ.
func (a Artifact) Replay() (bool, error) {
	p, err := DecodeProgram(a.Program)
	if err != nil {
		return false, err
	}
	if a.Kind == KindFlagViolation {
		o, err := FindViolation(p, a.Delta, 0)
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
	rep := CheckProgram(cfg, p, a.Seed)
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
	p, err := DecodeProgram(a.Program)
	if err != nil {
		return "// " + err.Error()
	}
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
	p, err := DecodeProgram(a.Program)
	if err != nil {
		return err
	}
	pol, err := ParsePolicy(a.Policy)
	if err != nil {
		return err
	}
	pf, err := TraceRun(p, MachineRun{Delta: MachineDelta(a.Delta), Policy: pol, Seed: a.MachSeed})
	if err != nil && a.Kind != KindMachineError {
		return err
	}
	return pf.WriteJSON(w)
}
