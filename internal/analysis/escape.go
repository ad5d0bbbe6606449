package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkEscape flags Go-side shared-memory accesses inside machine code.
//
// A "machine function" is any function or function literal that takes a
// *tso.Thread parameter: its memory actions are supposed to go through
// the Thread Load/Store/CAS/FetchAdd/Swap API so that the TBTSO[Δ]
// machine mediates (and bounds) them. A plain Go write to shared state
// from inside such a function bypasses the model entirely — the store
// is invisible to the machine's store buffers, Δ bound, monitors and
// use-after-free detection.
//
// Flagged inside machine functions:
//
//   - writes (assignment, ++/--) whose target is a package-level
//     variable, a variable captured from an enclosing function, or
//     memory reached through a pointer/slice/map rooted at a parameter
//     or captured variable;
//   - reads of package-level variables;
//   - any use of sync/atomic (atomic Go-side memory is still Go-side
//     memory).
//
// Deliberately not flagged: reads through parameters (immutable
// algorithm configuration — addresses, sizes, mode flags — is the
// normal pattern), writes to pure locals, and calls into non-machine
// helper functions (per-thread bookkeeping such as retirement lists
// lives behind those; the paper keeps rlists thread-private too). Where
// a machine function legitimately keeps Go-side state — thread-private
// result recording, mutex-protected statistics — suppress with a
// justified //tbtso:ignore escape comment.
func checkEscape(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		// The machine implementation itself is below the model: the
		// tso package's own goroutine plumbing is what DEFINES the
		// Thread API, so it is exempt.
		if PkgIs(p.Types, "internal/tso") {
			continue
		}
		for _, f := range p.Files {
			diags = append(diags, escapeInFile(p, f)...)
		}
	}
	return diags
}

// isThreadPtr reports whether t is *tso.Thread.
func isThreadPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Thread" && PkgIs(n.Obj().Pkg(), "internal/tso")
}

// hasThreadParam reports whether the signature takes a *tso.Thread.
func hasThreadParam(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isThreadPtr(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func escapeInFile(p *Package, f *ast.File) []Diagnostic {
	var diags []Diagnostic
	// Find machine functions: declarations and literals with a
	// *tso.Thread parameter.
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return true
			}
			if fn, ok := p.Info.Defs[n.Name].(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && hasThreadParam(sig) {
					ec := &escapeChecker{p: p, scope: n.Body, fnScope: p.Info.Scopes[n.Type], fname: n.Name.Name}
					diags = append(diags, ec.check()...)
				}
			}
		case *ast.FuncLit:
			if tv, ok := p.Info.Types[n]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok && hasThreadParam(sig) {
					ec := &escapeChecker{p: p, scope: n.Body, fnScope: p.Info.Scopes[n.Type], fname: "machine thread function"}
					diags = append(diags, ec.check()...)
				}
			}
		}
		return true
	})
	return diags
}

type escapeChecker struct {
	p        *Package
	scope    *ast.BlockStmt
	fnScope  *types.Scope // function scope: receiver + params + results
	fname    string
	diags    []Diagnostic
	reported map[token.Pos]bool // idents already reported as writes
}

func (ec *escapeChecker) check() []Diagnostic {
	ec.reported = make(map[token.Pos]bool)
	ast.Inspect(ec.scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested machine literal is checked on its own; a nested
			// non-machine literal still executes in machine context, so
			// keep descending into it.
			if tv, ok := ec.p.Info.Types[n]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok && hasThreadParam(sig) {
					return false
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ec.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			ec.checkWrite(n.X)
		case *ast.UnaryExpr:
			// Taking the address of shared state inside machine code is
			// treated as a write-capable access.
			if n.Op == token.AND {
				ec.checkWrite(n.X)
			}
		case *ast.Ident:
			ec.checkGlobalRead(n)
		case *ast.CallExpr:
			ec.checkAtomicCall(n)
		}
		return true
	})
	return ec.diags
}

// report appends a diagnostic anchored at n.
func (ec *escapeChecker) report(n ast.Node, format string, args ...any) {
	ec.diags = append(ec.diags, Diagnostic{
		Pos:     ec.p.Fset.Position(n.Pos()),
		Check:   CheckEscape,
		Message: fmt.Sprintf(format, args...),
	})
}

// checkWrite classifies the lvalue and flags writes that reach memory
// outside the machine model.
func (ec *escapeChecker) checkWrite(lhs ast.Expr) {
	root, deref := ec.lvalueRoot(lhs)
	if root == nil {
		// Writing through an arbitrary expression (call result, etc.).
		if deref {
			ec.report(lhs, "%s writes Go memory through an expression the machine model cannot see; use the *tso.Thread API or add //tbtso:ignore escape <why>", ec.fname)
		}
		return
	}
	obj, ok := ec.p.Info.Uses[root].(*types.Var)
	if !ok {
		if def, okd := ec.p.Info.Defs[root].(*types.Var); okd {
			obj = def
			ok = true
		}
	}
	if !ok || obj.IsField() {
		return
	}
	switch {
	case IsPackageVar(obj):
		ec.reported[root.Pos()] = true
		ec.report(root, "%s writes package-level variable %s, bypassing the *tso.Thread memory API", ec.fname, obj.Name())
	case !ec.declaredInScope(obj):
		ec.report(root, "%s writes %s, which is captured from an enclosing function and so is shared Go memory outside the machine model", ec.fname, obj.Name())
	case deref && ec.isParam(obj):
		ec.report(lhs, "%s writes shared Go memory reached through parameter %s, bypassing the *tso.Thread memory API", ec.fname, obj.Name())
	}
}

// checkGlobalRead flags reads of package-level variables.
func (ec *escapeChecker) checkGlobalRead(id *ast.Ident) {
	if ec.reported[id.Pos()] {
		return
	}
	obj, ok := ec.p.Info.Uses[id].(*types.Var)
	if !ok || !IsPackageVar(obj) {
		return
	}
	ec.report(id, "%s reads package-level variable %s, bypassing the *tso.Thread memory API", ec.fname, obj.Name())
}

// checkAtomicCall flags sync/atomic use inside machine code.
func (ec *escapeChecker) checkAtomicCall(call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	fn, ok := ec.p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "sync/atomic" {
		ec.report(call, "%s uses sync/atomic (%s) inside machine code; Go-side atomics bypass the TBTSO model — use th.CAS/th.FetchAdd/th.Swap", ec.fname, fn.Name())
	}
}

// lvalueRoot walks an lvalue to its root identifier, reporting whether
// the path passes through a pointer, slice or map (i.e. may reach
// memory not owned by the root variable itself).
func (ec *escapeChecker) lvalueRoot(e ast.Expr) (*ast.Ident, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e, false
	case *ast.ParenExpr:
		return ec.lvalueRoot(e.X)
	case *ast.StarExpr:
		root, _ := ec.lvalueRoot(e.X)
		return root, true
	case *ast.SelectorExpr:
		root, deref := ec.lvalueRoot(e.X)
		if tv, ok := ec.p.Info.Types[e.X]; ok {
			if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
				deref = true
			}
		}
		return root, deref
	case *ast.IndexExpr:
		root, deref := ec.lvalueRoot(e.X)
		if tv, ok := ec.p.Info.Types[e.X]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map, *types.Pointer:
				deref = true
			}
		}
		return root, deref
	}
	return nil, true
}

// declaredInScope reports whether v is declared inside the machine
// function being checked (parameters included).
func (ec *escapeChecker) declaredInScope(v *types.Var) bool {
	return v.Pos() >= ec.scope.Pos() && v.Pos() <= ec.scope.End() || ec.isParam(v)
}

// isParam reports whether v is a parameter or receiver of the machine
// function. go/types places receiver, parameters AND the body's
// top-level locals in the scope keyed by the FuncType, so the position
// test distinguishes the two: only receiver/params precede the body.
func (ec *escapeChecker) isParam(v *types.Var) bool {
	return ec.fnScope != nil && v.Pos() < ec.scope.Pos() && ec.fnScope.Lookup(v.Name()) == v
}
