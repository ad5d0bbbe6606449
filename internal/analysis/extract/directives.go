// Package extract lifts annotated Go functions into the mc package's
// abstract TSO op vocabulary and model-checks the result: the back end
// of cmd/tbtso-verify. Where tbtso-lint (package analysis) enforces the
// SYNTACTIC fence discipline — fast paths don't fence, slow paths do —
// this package checks that the annotated code is actually CORRECT under
// TBTSO[Δ]: the protocol-kernel helpers of the real FFHP and FFBL fast
// paths are translated into St/Ld/Fence/RMW/Wait programs, assembled
// into writer/reader pairs, and exhaustively explored across a Δ sweep,
// producing machine-readable certificates or concrete counterexamples.
//
// The annotation grammar (full reference in docs/VERIFY.md):
//
//	//tbtso:verify pair=<name> role=<writer|reader> [step=<k>] [copies=<n>]
//	    on a function doc comment: the function is one protocol step of
//	    the named pair. The writer is the fence-free fast path (thread
//	    T0); the reader is the fencing slow path (threads T1..Tn, with
//	    copies replicating it). A role's steps concatenate in step order.
//	//tbtso:property pair=<name> [expect=fail] forbid <atom> && <atom>...
//	    anywhere in a comment: declares the safety property. An atom is
//	    <role>.<reg> <op> <int> with op one of == != < <= > >=; several
//	    property lines for one pair OR together. expect=fail marks a
//	    planted negative control: the pair must be REFUTED at Δ=0.
//	//tbtso:model val=<n>
//	    trailing comment on a store/RMW whose written value is not a
//	    compile-time constant: the abstract value to use.
//	//tbtso:model wait | //tbtso:model wait=<n>
//	    trailing comment on a spin loop: model it as a Wait op. Without
//	    =n the wait scales with the sweep (Δ+1, the adequate wait of the
//	    flag principle); with =n it is fixed (for planted inadequate
//	    waits). Loops spinning on core.Bound.Eligible or Thread.Clock
//	    are recognized without the marker.
//	//tbtso:shared
//	    on a struct field or package var declaration: plain (non-atomic)
//	    accesses of it are modeled as St/Ld instead of being treated as
//	    unmodelable.
//
// Everything the extractor cannot soundly model is rejected with a
// diagnostic naming the construct — never silently dropped.
package extract

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"tbtso/internal/analysis"
)

// Check is the diagnostic check name for everything this package
// reports (extraction rejections, pair-assembly problems, and
// certification failures).
const Check = "verify"

// Roles.
const (
	RoleWriter = "writer"
	RoleReader = "reader"
)

// verifyArgs is a parsed //tbtso:verify directive.
type verifyArgs struct {
	pair   string
	role   string
	step   int
	copies int
}

// modelDir is a parsed //tbtso:model line directive.
type modelDir struct {
	isVal  bool
	isWait bool
	n      int // value for val=, fixed ticks for wait=; -1 for bare wait
}

// propertyDecl is a parsed //tbtso:property line.
type propertyDecl struct {
	pair       string
	expectFail bool
	forbid     *forbidExpr
	pos        token.Position
}

// directives aggregates every extraction directive found in the loaded
// packages.
type directives struct {
	// models maps filename -> line -> directive.
	models map[string]map[int]modelDir
	// shared maps filename -> line numbers carrying a //tbtso:shared
	// designation (the field/var declared on that line or the next).
	shared map[string]map[int]bool
	// properties in file/position order.
	properties []propertyDecl
	// verifies are the //tbtso:verify-annotated functions in source
	// order.
	verifies []verifyDecl

	diags []analysis.Diagnostic
}

// verifyDecl is one function documented with a //tbtso:verify line.
type verifyDecl struct {
	pkg  *analysis.Package
	fd   *ast.FuncDecl
	args verifyArgs
}

// collectDirectives parses the extraction directives of every package
// from the comment walk tbtso-lint shares.
func collectDirectives(pkgs []*analysis.Package) *directives {
	d := &directives{
		models: make(map[string]map[int]modelDir),
		shared: make(map[string]map[int]bool),
	}
	for _, p := range pkgs {
		dirs, errs := analysis.Directives(p, Check)
		d.diags = append(d.diags, errs...)
		for _, dir := range dirs {
			d.collect(p, dir)
		}
	}
	return d
}

func (d *directives) errorf(pos token.Position, format string, args ...any) {
	d.diags = append(d.diags, analysis.Diagnostic{
		Pos: pos, Check: Check, Message: fmt.Sprintf(format, args...),
	})
}

func (d *directives) collect(p *analysis.Package, dir analysis.Directive) {
	pos := dir.Pos
	rest := dir.Args
	switch dir.Name {
	case "verify":
		if dir.Func == nil {
			return // only a function doc comment names a step
		}
		va, err := parseVerify(rest)
		if err != nil {
			d.errorf(pos, "%v", err)
			return
		}
		d.verifies = append(d.verifies, verifyDecl{pkg: p, fd: dir.Func, args: va})
	case "model":
		md, err := parseModel(rest)
		if err != nil {
			d.errorf(pos, "%v", err)
			return
		}
		m := d.models[pos.Filename]
		if m == nil {
			m = make(map[int]modelDir)
			d.models[pos.Filename] = m
		}
		if _, dup := m[pos.Line]; dup {
			d.errorf(pos, "duplicate //tbtso:model directive on this line")
			return
		}
		m[pos.Line] = md
	case "shared":
		m := d.shared[pos.Filename]
		if m == nil {
			m = make(map[int]bool)
			d.shared[pos.Filename] = m
		}
		m[pos.Line] = true
	case "property":
		pd, err := parseProperty(rest)
		if err != nil {
			d.errorf(pos, "%v", err)
			return
		}
		pd.pos = pos
		d.properties = append(d.properties, pd)
	}
}

// parseModel parses "val=<n>", "wait" or "wait=<n>".
func parseModel(rest string) (modelDir, error) {
	switch {
	case rest == "wait":
		return modelDir{isWait: true, n: -1}, nil
	case strings.HasPrefix(rest, "wait="):
		n, err := strconv.Atoi(strings.TrimPrefix(rest, "wait="))
		if err != nil || n < 1 {
			return modelDir{}, fmt.Errorf("//tbtso:model wait=<n> needs a positive integer, got %q", rest)
		}
		return modelDir{isWait: true, n: n}, nil
	case strings.HasPrefix(rest, "val="):
		n, err := strconv.Atoi(strings.TrimPrefix(rest, "val="))
		if err != nil {
			return modelDir{}, fmt.Errorf("//tbtso:model val=<n> needs an integer, got %q", rest)
		}
		return modelDir{isVal: true, n: n}, nil
	}
	return modelDir{}, fmt.Errorf("unknown //tbtso:model form %q (valid: val=<n>, wait, wait=<n>)", rest)
}

// parseVerify parses the key=value arguments of a //tbtso:verify
// directive.
func parseVerify(rest string) (verifyArgs, error) {
	va := verifyArgs{}
	for _, f := range strings.Fields(rest) {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return va, fmt.Errorf("//tbtso:verify arguments are key=value, got %q", f)
		}
		switch key {
		case "pair":
			va.pair = val
		case "role":
			if val != RoleWriter && val != RoleReader {
				return va, fmt.Errorf("//tbtso:verify role must be writer or reader, got %q", val)
			}
			va.role = val
		case "step":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return va, fmt.Errorf("//tbtso:verify step=<k> needs a positive integer, got %q", val)
			}
			va.step = n
		case "copies":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > 3 {
				return va, fmt.Errorf("//tbtso:verify copies=<n> needs an integer in 1..3 (programs are 2-4 threads), got %q", val)
			}
			va.copies = n
		default:
			return va, fmt.Errorf("unknown //tbtso:verify argument %q", key)
		}
	}
	if va.pair == "" || va.role == "" {
		return va, fmt.Errorf("//tbtso:verify needs pair=<name> and role=<writer|reader>")
	}
	return va, nil
}

// forbidExpr is the conjunction of atoms after "forbid".
type forbidExpr struct {
	atoms []propAtom
	text  string // normalized source form
}

type propAtom struct {
	role string // writer | reader
	reg  string // register (location) name
	op   string // == != < <= > >=
	val  int
}

var atomOps = []string{"==", "!=", "<=", ">=", "<", ">"}

// parseProperty parses "pair=<name> [expect=fail] forbid <atoms>".
func parseProperty(rest string) (propertyDecl, error) {
	pd := propertyDecl{}
	fields := strings.Fields(rest)
	i := 0
	sawForbid := false
	for ; i < len(fields); i++ {
		if fields[i] == "forbid" {
			i++
			sawForbid = true
			break
		}
		key, val, ok := strings.Cut(fields[i], "=")
		if !ok {
			return pd, fmt.Errorf("//tbtso:property arguments before forbid are key=value, got %q", fields[i])
		}
		switch key {
		case "pair":
			pd.pair = val
		case "expect":
			if val != "fail" {
				return pd, fmt.Errorf("//tbtso:property expect only accepts fail, got %q", val)
			}
			pd.expectFail = true
		default:
			return pd, fmt.Errorf("unknown //tbtso:property argument %q", key)
		}
	}
	if pd.pair == "" {
		return pd, fmt.Errorf("//tbtso:property needs pair=<name>")
	}
	if !sawForbid {
		return pd, fmt.Errorf("//tbtso:property needs a forbid clause")
	}
	expr, err := parseForbid(strings.Join(fields[i:], " "))
	if err != nil {
		return pd, err
	}
	if len(expr.atoms) == 0 {
		return pd, fmt.Errorf("//tbtso:property forbid clause is empty")
	}
	pd.forbid = expr
	return pd, nil
}

// parseForbid parses "<role>.<reg> <op> <int> && ...".
func parseForbid(s string) (*forbidExpr, error) {
	expr := &forbidExpr{}
	var norm []string
	for _, part := range strings.Split(s, "&&") {
		part = strings.TrimSpace(part)
		var a propAtom
		found := false
		for _, op := range atomOps {
			if lhs, rhs, ok := strings.Cut(part, op); ok {
				a.op = op
				lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
				role, reg, ok := strings.Cut(lhs, ".")
				if !ok || (role != RoleWriter && role != RoleReader) || reg == "" {
					return nil, fmt.Errorf("forbid atom %q: left side must be writer.<reg> or reader.<reg>", part)
				}
				n, err := strconv.Atoi(rhs)
				if err != nil {
					return nil, fmt.Errorf("forbid atom %q: right side must be an integer", part)
				}
				a.role, a.reg, a.val = role, reg, n
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("forbid atom %q: no comparison operator (%s)", part, strings.Join(atomOps, " "))
		}
		expr.atoms = append(expr.atoms, a)
		norm = append(norm, fmt.Sprintf("%s.%s %s %d", a.role, a.reg, a.op, a.val))
	}
	expr.text = strings.Join(norm, " && ")
	return expr, nil
}

// eval applies one atom to a register value.
func (a propAtom) eval(v int) bool {
	switch a.op {
	case "==":
		return v == a.val
	case "!=":
		return v != a.val
	case "<":
		return v < a.val
	case "<=":
		return v <= a.val
	case ">":
		return v > a.val
	case ">=":
		return v >= a.val
	}
	return false
}

// modelAt returns the model directive attached to the given position's
// line, if any.
func (d *directives) modelAt(pos token.Position) (modelDir, bool) {
	m, ok := d.models[pos.Filename]
	if !ok {
		return modelDir{}, false
	}
	md, ok := m[pos.Line]
	return md, ok
}

// sharedAt reports whether a declaration at pos carries a
// //tbtso:shared designation (trailing comment on the same line, or a
// comment on the line above).
func (d *directives) sharedAt(pos token.Position) bool {
	m, ok := d.shared[pos.Filename]
	if !ok {
		return false
	}
	return m[pos.Line] || m[pos.Line-1]
}
