package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// fenceFuncs identifies the repository's fence primitives: calling any
// of these drains the store buffer (§2's fence action). Both tools
// classify fences from this one list. Matching is by package suffix +
// receiver + name so it keeps working if the module is ever renamed.
var fenceFuncs = []struct {
	pkg  string // import-path suffix
	recv string // receiver type name ("" = package function)
	name string
}{
	{"internal/fence", "Line", "Full"},
	{"internal/fence", "Lines", "Full"},
	{"internal/tso", "Thread", "Fence"},
}

// IsFence reports whether fn is one of the fence primitives.
func IsFence(fn *types.Func) bool {
	recv := ReceiverTypeName(fn)
	for _, ff := range fenceFuncs {
		if PkgIs(fn.Pkg(), ff.pkg) && fn.Name() == ff.name && recv == ff.recv {
			return true
		}
	}
	return false
}

// PkgIs reports whether pkg is the module package with the given
// import-path suffix ("internal/tso"), whatever the module path is.
func PkgIs(pkg *types.Package, suffix string) bool {
	return pkg != nil && (pkg.Path() == suffix || strings.HasSuffix(pkg.Path(), "/"+suffix))
}

// ReceiverTypeName returns the name of fn's receiver type ("" for
// package functions), with any pointer indirection stripped.
func ReceiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// checkFenceDiscipline runs the fencefree and requires-fence checks.
func checkFenceDiscipline(pkgs []*Package, ft *factTable) []Diagnostic {
	fc := &fenceChecker{ft: ft, always: make(map[*types.Func]int8)}
	var diags []Diagnostic
	for _, p := range pkgs {
		for fn, facts := range ft.byFunc {
			if facts.pkg != p { // report in deterministic package order
				continue
			}
			if facts.fenceFree {
				diags = append(diags, fc.checkFenceFree(p, fn, facts)...)
			}
			if facts.requiresFence {
				diags = append(diags, fc.checkRequiresFence(p, fn, facts)...)
			}
		}
	}
	return diags
}

type fenceChecker struct {
	ft *factTable
	// always memoizes whether a module function fences on every path:
	// 0 unknown, 1 yes, -1 no/in-progress (cycles resolve to no).
	always map[*types.Func]int8
}

// callSite is one resolved static call inside a function body.
type callSite struct {
	fn   *types.Func
	call *ast.CallExpr
}

// callsIn returns the statically resolvable calls in a body. Calls
// through interfaces or function values are not resolvable and are
// skipped (a documented soundness gap: route fences through concrete
// calls, as the repository does). Function literals are traversed —
// they may run on any path, so for the fencefree check their calls
// count; the requires-fence path analysis never treats them as sure.
func callsIn(p *Package, body ast.Node) []callSite {
	var out []callSite
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		if fn, ok := p.Info.Uses[id].(*types.Func); ok {
			out = append(out, callSite{fn: fn, call: call})
		}
		return true
	})
	return out
}

// checkFenceFree verifies that fn never reaches a fence primitive
// through same-module calls.
func (fc *fenceChecker) checkFenceFree(p *Package, fn *types.Func, facts *funcFacts) []Diagnostic {
	if facts.decl.Body == nil {
		return nil
	}
	var diags []Diagnostic
	for _, cs := range callsIn(p, facts.decl.Body) {
		if chain := fc.fenceChain(cs.fn, map[*types.Func]bool{fn: true}); chain != "" {
			msg := fmt.Sprintf("%s is annotated //tbtso:fencefree but %s", fn.Name(), chain)
			diags = append(diags, Diagnostic{
				Pos:     p.Fset.Position(cs.call.Pos()),
				Check:   CheckFenceFree,
				Message: msg,
			})
		}
	}
	return diags
}

// fenceChain reports how callee leads to a fence ("calls a.Full" or
// "calls x, which calls y, which calls a.Full"); "" if it provably
// does not through statically resolvable module calls.
func (fc *fenceChecker) fenceChain(callee *types.Func, visiting map[*types.Func]bool) string {
	if IsFence(callee) {
		return "calls the fence primitive " + callee.FullName()
	}
	if !fc.ft.isModuleFunc(callee) || visiting[callee] {
		return ""
	}
	if facts, ok := fc.ft.byFunc[callee]; ok && facts.requiresFence {
		return "calls " + callee.FullName() + ", which is annotated //tbtso:requires-fence"
	}
	decl, ok := fc.ft.bodies[callee]
	if !ok || decl.Body == nil {
		return ""
	}
	visiting[callee] = true
	defer delete(visiting, callee)
	p := fc.ft.declPkg[callee]
	for _, cs := range callsIn(p, decl.Body) {
		if chain := fc.fenceChain(cs.fn, visiting); chain != "" {
			return "calls " + callee.FullName() + ", which " + chain
		}
	}
	return ""
}

// checkRequiresFence verifies that fn contains a fence on every path
// (per-block approximation). A body with no fence call at all is the
// hard failure; a body that fences only on some paths gets the weaker
// diagnostic.
func (fc *fenceChecker) checkRequiresFence(p *Package, fn *types.Func, facts *funcFacts) []Diagnostic {
	if facts.decl.Body == nil {
		return nil
	}
	hasAny := false
	for _, cs := range callsIn(p, facts.decl.Body) {
		if fc.surelyFences(cs.fn) || IsFence(cs.fn) {
			hasAny = true
			break
		}
	}
	if !hasAny {
		return []Diagnostic{{
			Pos:   p.Fset.Position(facts.decl.Name.Pos()),
			Check: CheckRequiresFence,
			Message: fmt.Sprintf("%s is annotated //tbtso:requires-fence but its body contains no fence call at all",
				fn.Name()),
		}}
	}
	if !fc.blockAlwaysFences(p, facts.decl.Body.List) {
		return []Diagnostic{{
			Pos:   p.Fset.Position(facts.decl.Name.Pos()),
			Check: CheckRequiresFence,
			Message: fmt.Sprintf("%s is annotated //tbtso:requires-fence but a path through its body reaches the end without a fence (per-block approximation)",
				fn.Name()),
		}}
	}
	return nil
}

// surelyFences reports whether calling fn is guaranteed to issue a
// fence: fence primitives, //tbtso:requires-fence contracts, and module
// functions whose bodies fence on every path (computed transitively).
func (fc *fenceChecker) surelyFences(fn *types.Func) bool {
	if IsFence(fn) {
		return true
	}
	if !fc.ft.isModuleFunc(fn) {
		return false
	}
	if facts, ok := fc.ft.byFunc[fn]; ok && facts.requiresFence {
		return true
	}
	switch fc.always[fn] {
	case 1:
		return true
	case -1:
		return false
	}
	fc.always[fn] = -1 // cycle / in-progress resolves to "not sure"
	decl, ok := fc.ft.bodies[fn]
	if !ok || decl.Body == nil {
		return false
	}
	p := fc.ft.declPkg[fn]
	if fc.blockAlwaysFences(p, decl.Body.List) {
		fc.always[fn] = 1
		return true
	}
	return false
}

// blockAlwaysFences reports whether every execution that falls through
// the statement list performs a fence. The approximation is per-block:
// loops may run zero times, so they never count; an if counts only when
// both branches do; short-circuit operands are treated as evaluated.
func (fc *fenceChecker) blockAlwaysFences(p *Package, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if fc.stmtAlwaysFences(p, s) {
			return true
		}
	}
	return false
}

func (fc *fenceChecker) stmtAlwaysFences(p *Package, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return fc.exprSurelyFences(p, s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			if fc.exprSurelyFences(p, e) {
				return true
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			if fc.exprSurelyFences(p, e) {
				return true
			}
		}
	case *ast.IfStmt:
		if s.Init != nil && fc.stmtAlwaysFences(p, s.Init) {
			return true
		}
		if fc.exprSurelyFences(p, s.Cond) {
			return true
		}
		if s.Else == nil {
			return false
		}
		thenFences := fc.blockAlwaysFences(p, s.Body.List)
		elseFences := fc.stmtAlwaysFences(p, s.Else)
		return thenFences && elseFences
	case *ast.BlockStmt:
		return fc.blockAlwaysFences(p, s.List)
	case *ast.LabeledStmt:
		return fc.stmtAlwaysFences(p, s.Stmt)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Conservatively not sure (a missing default skips all bodies).
		return false
	case *ast.DeferStmt:
		// A deferred fence runs on every exit; it does not order the
		// body's own accesses, so it does not count as a sure fence.
		return false
	}
	return false
}

// exprSurelyFences reports whether evaluating e performs a fence via a
// statically resolvable call. Function literals are not descended into:
// defining a closure fences nothing.
func (fc *fenceChecker) exprSurelyFences(p *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		if fn, ok := p.Info.Uses[id].(*types.Func); ok && fc.surelyFences(fn) {
			found = true
			return false
		}
		return true
	})
	return found
}
