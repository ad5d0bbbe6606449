package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkMixed flags struct fields and package-level variables that are
// accessed both through sync/atomic functions (atomic.LoadUint64(&x.f),
// atomic.AddInt64(&v, 1), ...) and through plain loads/stores. Mixing
// the two is the classic latent data race: the plain access is free to
// be torn, cached or reordered, and the Go race detector only reports
// it when the schedule happens to exhibit the race. The checks runs
// over the whole module; the fix is to make every access atomic (or,
// for genuinely pre-publication initialization, to suppress the plain
// site with a justified //tbtso:ignore mixed comment).
//
// Fields wrapped in atomic.Uint64-style types are immune by
// construction and never flagged — this check exists for the old-style
// sync/atomic call pattern.
func checkMixed(pkgs []*Package) []Diagnostic {
	type access struct {
		pos token.Position
	}
	atomicUses := make(map[*types.Var][]access) // first atomic site(s)
	plainUses := make(map[*types.Var][]access)

	for _, p := range pkgs {
		// Operands of &x passed to sync/atomic calls, by position of
		// the inner expression, so the general walk can skip them.
		atomicOperand := make(map[token.Pos]bool)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicCall(p, call) {
					return true
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					target := ast.Unparen(un.X)
					var v *types.Var
					switch t := target.(type) {
					case *ast.SelectorExpr:
						v = FieldVar(p, t)
					case *ast.Ident:
						v = globalVar(p, t)
					}
					if v != nil {
						atomicOperand[target.Pos()] = true
						atomicUses[v] = append(atomicUses[v], access{p.Fset.Position(target.Pos())})
					}
				}
				return true
			})
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var v *types.Var
				switch e := n.(type) {
				case *ast.SelectorExpr:
					if atomicOperand[e.Pos()] {
						return true // the atomic site itself
					}
					v = FieldVar(p, e)
				case *ast.Ident:
					if atomicOperand[e.Pos()] {
						return true
					}
					v = globalVar(p, e)
				default:
					return true
				}
				if v != nil && isMixableType(v.Type()) {
					plainUses[v] = append(plainUses[v], access{p.Fset.Position(n.Pos())})
				}
				return true
			})
		}
	}

	var diags []Diagnostic
	for v, plains := range plainUses {
		atomics, ok := atomicUses[v]
		if !ok {
			continue
		}
		kind := "package-level variable"
		if v.IsField() {
			kind = "field"
		}
		for _, pl := range plains {
			diags = append(diags, Diagnostic{
				Pos:   pl.pos,
				Check: CheckMixed,
				Message: fmt.Sprintf("%s %s is accessed atomically via sync/atomic (e.g. at %s) but plainly here; mixed atomic/plain access is a latent data race",
					kind, v.Name(), atomics[0].pos),
			})
		}
	}
	return diags
}

// isAtomicCall reports whether call is a sync/atomic package function.
func isAtomicCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	// Package functions only: methods of atomic.Uint64 etc. take no
	// address argument and cannot be mixed with plain access.
	sig, _ := fn.Type().(*types.Signature)
	return fn.Pkg().Path() == "sync/atomic" && (sig == nil || sig.Recv() == nil)
}

// FieldVar resolves a selector to the struct field or qualified
// package-level variable (pkg.Var) it denotes, if any.
func FieldVar(p *Package, sel *ast.SelectorExpr) *types.Var {
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
		return nil
	}
	if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && IsPackageVar(v) {
		return v
	}
	return nil
}

// globalVar resolves a bare identifier to a package-level variable.
func globalVar(p *Package, id *ast.Ident) *types.Var {
	if v, ok := p.Info.Uses[id].(*types.Var); ok && IsPackageVar(v) {
		return v
	}
	return nil
}

// IsPackageVar reports whether obj is a package-level variable (never
// a field, parameter or local).
func IsPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isMixableType restricts the check to types sync/atomic operates on.
func isMixableType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsInteger|types.IsUnsigned) != 0
	case *types.Pointer:
		return true
	}
	return false
}
