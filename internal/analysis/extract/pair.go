package extract

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"tbtso/internal/analysis"
	"tbtso/internal/mc"
)

// Pair is one named writer/reader protocol pair assembled from its
// annotated steps, ready to instantiate as an mc.Program.
type Pair struct {
	Name string
	// ExpectFail marks a planted negative control: the property must be
	// REFUTED at Δ=0 (plain TSO). Normal pairs must hold at every swept
	// Δ ≥ 1 and be refuted at Δ=0 (the non-vacuity check).
	ExpectFail bool
	Writer     []*Step
	Reader     []*Step
	// Copies is how many identical reader threads run (1–3); the
	// program has 1+Copies threads.
	Copies int
	Props  []propertyDecl

	// Failed marks a pair that cannot be checked; the extraction's
	// diagnostics explain why.
	Failed bool

	// Assembly results (valid when !Failed):
	Vars       []string // variable index -> location name
	WriterOps  []AbsOp
	ReaderOps  []AbsOp
	WriterRegs []string // register index -> name, writer thread
	ReaderRegs []string // register index -> name, each reader thread
}

// Threads is the instantiated thread count.
func (p *Pair) Threads() int { return 1 + p.Copies }

// assemblePairs groups steps and properties by pair name and assembles
// each pair's abstract program skeleton.
func assemblePairs(steps []*Step, props []propertyDecl) ([]*Pair, []analysis.Diagnostic) {
	var diags []analysis.Diagnostic
	errorf := func(pos token.Position, format string, args ...any) {
		diags = append(diags, analysis.Diagnostic{Pos: pos, Check: Check, Message: fmt.Sprintf(format, args...)})
	}

	byName := make(map[string]*Pair)
	order := []string{}
	get := func(name string) *Pair {
		p := byName[name]
		if p == nil {
			p = &Pair{Name: name, Copies: 1}
			byName[name] = p
			order = append(order, name)
		}
		return p
	}

	for _, st := range steps {
		p := get(st.Pair)
		if st.Failed {
			p.Failed = true
		}
		switch st.Role {
		case RoleWriter:
			p.Writer = append(p.Writer, st)
		case RoleReader:
			p.Reader = append(p.Reader, st)
		}
		if st.Copies > 0 {
			if p.Copies != 1 && p.Copies != st.Copies {
				errorf(st.Pos, "pair %s: conflicting copies= values (%d and %d)", st.Pair, p.Copies, st.Copies)
				p.Failed = true
			}
			p.Copies = st.Copies
		}
	}
	for _, pd := range props {
		p, ok := byName[pd.pair]
		if !ok {
			errorf(pd.pos, "//tbtso:property names pair %q, which has no //tbtso:verify steps", pd.pair)
			continue
		}
		p.Props = append(p.Props, pd)
		if pd.expectFail {
			p.ExpectFail = true
		}
	}

	sort.Strings(order)
	var pairs []*Pair
	for _, name := range order {
		p := byName[name]
		pairs = append(pairs, p)
		assembleOne(p, errorf)
	}
	return pairs, diags
}

// assembleOne validates one pair's shape and computes its variable and
// register numbering.
func assembleOne(p *Pair, errorf func(token.Position, string, ...any)) {
	at := func() token.Position {
		if len(p.Writer) > 0 {
			return p.Writer[0].Pos
		}
		if len(p.Reader) > 0 {
			return p.Reader[0].Pos
		}
		if len(p.Props) > 0 {
			return p.Props[0].pos
		}
		return token.Position{}
	}
	fail := func(format string, args ...any) {
		errorf(at(), "pair "+p.Name+": "+format, args...)
		p.Failed = true
	}

	if len(p.Writer) == 0 {
		fail("no writer steps (annotate the fence-free fast path //tbtso:verify role=writer)")
	}
	if len(p.Reader) == 0 {
		fail("no reader steps (annotate the fencing slow path //tbtso:verify role=reader)")
	}
	if len(p.Props) == 0 {
		fail("no //tbtso:property declares what to forbid")
	}
	for _, pd := range p.Props {
		if pd.expectFail != p.ExpectFail {
			fail("mixed expect= values across property lines")
			break
		}
	}
	sortSteps := func(ss []*Step, role string) {
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].Order < ss[j].Order })
		seen := map[int]string{}
		for _, s := range ss {
			if prev, dup := seen[s.Order]; dup {
				fail("%s steps %s and %s share step=%d; give each a distinct order", role, prev, s.Fn, s.Order)
			}
			seen[s.Order] = s.Fn
		}
	}
	sortSteps(p.Writer, RoleWriter)
	sortSteps(p.Reader, RoleReader)
	if p.Failed {
		return
	}

	flatten := func(ss []*Step) []AbsOp {
		var ops []AbsOp
		for _, s := range ss {
			ops = append(ops, s.Ops...)
		}
		return ops
	}
	p.WriterOps = flatten(p.Writer)
	p.ReaderOps = flatten(p.Reader)
	if len(p.WriterOps) == 0 || len(p.ReaderOps) == 0 {
		fail("a role extracted zero operations; nothing to check")
		return
	}

	// Variables: numbered by first occurrence, writer then reader.
	varIdx := map[string]int{}
	for _, op := range append(append([]AbsOp{}, p.WriterOps...), p.ReaderOps...) {
		if op.Loc == "" {
			continue
		}
		if _, ok := varIdx[op.Loc]; !ok {
			varIdx[op.Loc] = len(p.Vars)
			p.Vars = append(p.Vars, op.Loc)
		}
	}

	// Registers: per role, named after the loaded location, deduplicated
	// with #2, #3... when one role loads the same location repeatedly.
	assignRegs := func(ops []AbsOp) []string {
		var regs []string
		used := map[string]int{}
		for _, op := range ops {
			if op.Kind != mc.OpLoad && op.Kind != mc.OpRMW {
				continue
			}
			used[op.Loc]++
			name := op.Loc
			if n := used[op.Loc]; n > 1 {
				name = fmt.Sprintf("%s#%d", op.Loc, n)
			}
			regs = append(regs, name)
		}
		return regs
	}
	p.WriterRegs = assignRegs(p.WriterOps)
	p.ReaderRegs = assignRegs(p.ReaderOps)

	// Every property atom must name a register of its role.
	regSet := func(regs []string) map[string]bool {
		m := map[string]bool{}
		for _, r := range regs {
			m[r] = true
		}
		return m
	}
	wregs, rregs := regSet(p.WriterRegs), regSet(p.ReaderRegs)
	for _, pd := range p.Props {
		for _, a := range pd.forbid.atoms {
			regs, role := wregs, "writer"
			if a.role == RoleReader {
				regs, role = rregs, "reader"
			}
			if !regs[a.reg] {
				errorf(pd.pos, "pair %s: property names %s.%s, but the %s loads only %s",
					p.Name, a.role, a.reg, role, strings.Join(sortedKeys(regs), ", "))
				p.Failed = true
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Instantiate renders the pair as an mc.Program with scaled waits set
// to wait transitions. The writer is thread 0; Copies identical reader
// threads follow.
func (p *Pair) Instantiate(wait int) mc.Program {
	varIdx := map[string]int{}
	for i, v := range p.Vars {
		varIdx[v] = i
	}
	lower := func(ops []AbsOp) []mc.Op {
		out := make([]mc.Op, 0, len(ops))
		reg := 0
		for _, op := range ops {
			switch op.Kind {
			case mc.OpStore:
				out = append(out, mc.St(varIdx[op.Loc], op.Val))
			case mc.OpLoad:
				out = append(out, mc.Ld(varIdx[op.Loc], reg))
				reg++
			case mc.OpRMW:
				out = append(out, mc.RMW(varIdx[op.Loc], op.Val, reg))
				reg++
			case mc.OpFence:
				out = append(out, mc.Fence())
			case mc.OpWait:
				n := op.Val
				if n == WaitScaled {
					n = wait
				}
				out = append(out, mc.Wait(n))
			}
		}
		return out
	}
	prog := mc.Program{Vars: len(p.Vars)}
	prog.Threads = append(prog.Threads, lower(p.WriterOps))
	rt := lower(p.ReaderOps)
	for i := 0; i < p.Copies; i++ {
		prog.Threads = append(prog.Threads, append([]mc.Op(nil), rt...))
	}
	prog.Regs = p.regs()
	return prog
}

// regs is the instantiated program's registers per thread.
func (p *Pair) regs() int { return max(len(p.WriterRegs), len(p.ReaderRegs)) }

// Forbidden reports whether an outcome string (mc's canonical
// "T0:r0=1 T1:r0=0" form) satisfies any property line: all writer atoms
// hold on thread 0 and there is a single reader thread on which all
// reader atoms hold.
func (p *Pair) Forbidden(outcome string) bool {
	regs, ok := mc.ParseOutcome(outcome, p.Threads(), p.regs())
	if !ok {
		return false
	}
	widx := regIndex(p.WriterRegs)
	ridx := regIndex(p.ReaderRegs)
	for _, pd := range p.Props {
		if p.lineHolds(pd, regs, widx, ridx) {
			return true
		}
	}
	return false
}

func (p *Pair) lineHolds(pd propertyDecl, regs [][]int, widx, ridx map[string]int) bool {
	for _, a := range pd.forbid.atoms {
		if a.role == RoleWriter {
			i, ok := widx[a.reg]
			if !ok || i >= len(regs[0]) || !a.eval(regs[0][i]) {
				return false
			}
		}
	}
	// Reader atoms: exists one reader thread satisfying all of them.
	hasReaderAtom := false
	for _, a := range pd.forbid.atoms {
		if a.role == RoleReader {
			hasReaderAtom = true
		}
	}
	if !hasReaderAtom {
		return true
	}
reader:
	for t := 1; t < len(regs); t++ {
		for _, a := range pd.forbid.atoms {
			if a.role != RoleReader {
				continue
			}
			i, ok := ridx[a.reg]
			if !ok || i >= len(regs[t]) || !a.eval(regs[t][i]) {
				continue reader
			}
		}
		return true
	}
	return false
}

func regIndex(regs []string) map[string]int {
	m := make(map[string]int, len(regs))
	for i, r := range regs {
		m[r] = i
	}
	return m
}

// PropertyStrings returns the normalized property lines for reports.
func (p *Pair) PropertyStrings() []string {
	var out []string
	for _, pd := range p.Props {
		out = append(out, pd.forbid.text)
	}
	return out
}

// Dump renders the assembled pair as a stable, human-diffable text —
// the golden-file format of the extraction tests. Positions are
// omitted on purpose: the dump must not churn when unrelated lines
// move.
func (p *Pair) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pair %s", p.Name)
	if p.ExpectFail {
		b.WriteString(" expect=fail")
	}
	fmt.Fprintf(&b, " threads=%d\n", p.Threads())
	if p.Failed {
		b.WriteString("  FAILED (see diagnostics)\n")
		return b.String()
	}
	for i, v := range p.Vars {
		fmt.Fprintf(&b, "  var %d = %s\n", i, v)
	}
	dumpRole := func(role string, ops []AbsOp, regs []string) {
		fmt.Fprintf(&b, "  %s:\n", role)
		reg := 0
		for i, op := range ops {
			note := ""
			if op.Kind == mc.OpLoad || op.Kind == mc.OpRMW {
				note = fmt.Sprintf("  -> r%d (%s)", reg, regs[reg])
				reg++
			}
			fmt.Fprintf(&b, "    %2d: %-18s%s  [%s]\n", i, op.String(), note, op.Fn)
		}
	}
	dumpRole("writer (T0)", p.WriterOps, p.WriterRegs)
	roleName := "reader (T1)"
	if p.Copies > 1 {
		roleName = fmt.Sprintf("reader (T1..T%d)", p.Copies)
	}
	dumpRole(roleName, p.ReaderOps, p.ReaderRegs)
	for _, pd := range p.Props {
		fmt.Fprintf(&b, "  forbid %s\n", pd.forbid.text)
	}
	return b.String()
}
