package extract

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"tbtso/internal/analysis"
	"tbtso/internal/mc"
)

// WaitScaled is the Val of an extracted Wait op whose duration scales
// with the sweep: at bound Δ it is instantiated as Wait(Δ+1), the
// adequate wait of the flag principle (§3). A non-negative Val is a
// fixed wait (//tbtso:model wait=<n>), kept constant across the sweep —
// that is how a planted inadequate wait is expressed.
const WaitScaled = -1

// AbsOp is one extracted abstract operation. Loc is the symbolic
// location name for St/Ld/RMW (resolved to a variable index at pair
// assembly); Val is the stored/added value, or the wait duration
// (WaitScaled = Δ+1 at instantiation). Fn names the source function for
// dumps and certificates.
type AbsOp struct {
	Kind mc.OpKind
	Loc  string
	Val  int
	Fn   string
	Pos  token.Position
}

func (o AbsOp) String() string {
	switch o.Kind {
	case mc.OpStore:
		return fmt.Sprintf("St %s = %d", o.Loc, o.Val)
	case mc.OpLoad:
		return fmt.Sprintf("Ld %s", o.Loc)
	case mc.OpFence:
		return "Fence"
	case mc.OpRMW:
		return fmt.Sprintf("RMW %s += %d", o.Loc, o.Val)
	case mc.OpWait:
		if o.Val == WaitScaled {
			return "Wait Δ+1"
		}
		return fmt.Sprintf("Wait %d", o.Val)
	}
	return fmt.Sprintf("op(%d)", o.Kind)
}

// Step is one annotated function's extracted operation sequence.
type Step struct {
	Pair   string
	Role   string
	Order  int // step=<k>; 0 when unspecified (sole step of its role)
	Copies int // copies=<n> on reader steps; 0 when unspecified
	Fn     string
	Pos    token.Position
	Ops    []AbsOp
	Failed bool // extraction rejected; diagnostics explain why
}

// Extraction is the result of extracting every annotated pair from a
// set of loaded packages.
type Extraction struct {
	Pairs []*Pair
	Diags []analysis.Diagnostic
}

// Extract finds every //tbtso:verify-annotated function in pkgs,
// translates it to abstract ops, and assembles the pairs. Rejections
// and grammar errors come back as diagnostics (check "verify"); a pair
// with any failed ingredient has Pair.Failed set and is not checkable.
func Extract(pkgs []*analysis.Package) *Extraction {
	dirs := collectDirectives(pkgs)
	idx := &funcIndex{funcs: analysis.NewFuncIndex(pkgs), purity: make(map[*types.Func]bool)}
	diags := dirs.diags
	var steps []*Step
	for _, v := range dirs.verifies {
		st, ds := extractFunc(v.pkg, v.fd, v.args, dirs, idx)
		steps = append(steps, st)
		diags = append(diags, ds...)
	}
	pairs, ds := assemblePairs(steps, dirs.properties)
	diags = append(diags, ds...)
	analysis.SortDiagnostics(diags)
	return &Extraction{Pairs: pairs, Diags: diags}
}

// funcIndex is what transitive-purity checks of helper calls read:
// every module function's declaration, and the memoized verdicts.
type funcIndex struct {
	funcs  analysis.FuncIndex
	purity map[*types.Func]bool
}

// Call classification: what an extracted function may call, and what
// each call means in the abstract program.
type callClass int

const (
	ccPure          callClass = iota // no shared-memory effect
	ccAtomic                         // sync/atomic method
	ccThread                         // tso.Thread memory/wait method
	ccFence                          // a fence primitive (analysis.IsFence)
	ccBoundWait                      // core.Bound.Wait
	ccBoundEligible                  // core.Bound.Eligible (spin conditions only)
	ccClock                          // tso.Thread.Clock (pure; marks spin conditions)
	ccUnknown                        // unmodelable
)

type callInfo struct {
	class  callClass
	method string
	callee *types.Func // for ccUnknown module funcs, to name in diagnostics
}

// extractor walks one annotated function body.
type extractor struct {
	pkg    *analysis.Package
	dirs   *directives
	idx    *funcIndex
	fnName string
	recv   types.Object
	params map[types.Object]bool
	step   *Step
	diags  []analysis.Diagnostic
}

func extractFunc(p *analysis.Package, fd *ast.FuncDecl, va verifyArgs, dirs *directives, idx *funcIndex) (*Step, []analysis.Diagnostic) {
	x := &extractor{
		pkg:    p,
		dirs:   dirs,
		idx:    idx,
		fnName: funcDisplayName(p, fd),
		params: make(map[types.Object]bool),
	}
	x.step = &Step{
		Pair:   va.pair,
		Role:   va.role,
		Order:  va.step,
		Copies: va.copies,
		Fn:     x.fnName,
		Pos:    p.Fset.Position(fd.Pos()),
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		x.recv = p.Info.Defs[fd.Recv.List[0].Names[0]]
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				x.params[obj] = true
			}
		}
	}
	if fd.Body == nil {
		x.rejectf(fd.Pos(), "annotated function %s has no body", x.fnName)
	} else {
		for _, s := range fd.Body.List {
			x.stmt(s)
		}
	}
	return x.step, x.diags
}

func funcDisplayName(p *analysis.Package, fd *ast.FuncDecl) string {
	base := p.Types.Name()
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return fmt.Sprintf("%s.(*%s).%s", base, id.Name, fd.Name.Name)
		}
	}
	return base + "." + fd.Name.Name
}

func (x *extractor) position(p token.Pos) token.Position { return x.pkg.Fset.Position(p) }

func (x *extractor) rejectf(p token.Pos, format string, args ...any) {
	x.step.Failed = true
	x.diags = append(x.diags, analysis.Diagnostic{
		Pos: x.position(p), Check: Check,
		Message: fmt.Sprintf("%s: ", x.fnName) + fmt.Sprintf(format, args...),
	})
}

func (x *extractor) emit(p token.Pos, op AbsOp) {
	op.Fn = x.fnName
	op.Pos = x.position(p)
	x.step.Ops = append(x.step.Ops, op)
}

// stmt processes one statement. Statements free of shared operations
// are skipped wholesale — local computation is invisible to the memory
// model; statements that do touch shared state are translated per kind,
// and any kind we cannot translate soundly is rejected.
func (x *extractor) stmt(s ast.Stmt) {
	if fs, ok := s.(*ast.ForStmt); ok {
		x.forStmt(fs)
		return
	}
	if !x.hasShared(s) {
		return
	}
	switch st := s.(type) {
	case *ast.ExprStmt:
		x.expr(st.X)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			x.expr(r)
		}
	case *ast.AssignStmt:
		x.assign(st)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			x.rejectf(s.Pos(), "cannot model this declaration over shared state")
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					x.expr(v)
				}
			}
		}
	case *ast.BlockStmt:
		for _, inner := range st.List {
			x.stmt(inner)
		}
	case *ast.IfStmt:
		x.rejectf(s.Pos(), "conditional control flow over shared operations is not modelable; "+
			"restructure the protocol kernel into straight-line steps (branch in the caller)")
	default:
		x.rejectf(s.Pos(), "cannot model %s containing shared operations; "+
			"restructure into straight-line stores/loads/fences or a marked spin loop", stmtKind(s))
	}
}

func stmtKind(s ast.Stmt) string {
	switch s.(type) {
	case *ast.RangeStmt:
		return "a range loop"
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return "a switch"
	case *ast.SelectStmt:
		return "a select"
	case *ast.GoStmt:
		return "a go statement"
	case *ast.DeferStmt:
		return "a defer"
	case *ast.SendStmt:
		return "a channel send"
	default:
		return fmt.Sprintf("a %T", s)
	}
}

// forStmt applies the spin-loop rules: a loop is a Wait if it is marked
// //tbtso:model wait (optionally =n), or if its condition spins on
// core.Bound.Eligible or tso.Thread.Clock. The loop body must be free
// of shared operations — it only burns time.
func (x *extractor) forStmt(st *ast.ForStmt) {
	pos := x.position(st.Pos())
	md, ok := x.dirs.modelAt(pos)
	waitMarked := ok && md.isWait
	condSpin := st.Cond != nil && x.condIsBoundSpin(st.Cond)
	if !waitMarked && !condSpin {
		if x.hasShared(st) {
			x.rejectf(st.Pos(), "loop containing shared operations is not modelable; "+
				"a pure time-burning spin can be marked //tbtso:model wait")
		}
		return
	}
	for _, part := range []ast.Node{st.Init, st.Body, st.Post} {
		if part != nil && x.hasShared(part) {
			x.rejectf(st.Pos(), "spin loop modeled as Wait must not touch shared state in its body")
			return
		}
	}
	val := WaitScaled
	if waitMarked && md.n > 0 {
		val = md.n
	}
	x.emit(st.Pos(), AbsOp{Kind: mc.OpWait, Val: val})
}

// condIsBoundSpin reports whether a loop condition consults the
// visibility bound (core.Bound.Eligible) or the machine clock
// (tso.Thread.Clock) — the two idioms for "wait out Δ".
func (x *extractor) condIsBoundSpin(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch x.classify(call).class {
			case ccBoundEligible, ccClock:
				found = true
			}
		}
		return !found
	})
	return found
}

// assign handles assignments: right-hand sides are walked for loads,
// left-hand sides must be locals (invisible), blanks, or designated
// //tbtso:shared locations (a plain store).
func (x *extractor) assign(st *ast.AssignStmt) {
	for _, r := range st.Rhs {
		x.expr(r)
	}
	for i, l := range st.Lhs {
		switch lhs := l.(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := x.pkg.Info.Defs[lhs]
			if obj == nil {
				obj = x.pkg.Info.Uses[lhs]
			}
			if obj == nil {
				continue
			}
			if x.sharedObj(obj) {
				x.plainStore(st, i, lhs.Name)
				continue
			}
			if analysis.IsPackageVar(obj) {
				x.rejectf(l.Pos(), "assignment to package-level %s is not modeled; "+
					"mark it //tbtso:shared or use an atomic", lhs.Name)
			}
			// Local (including parameters): invisible to the model.
		case *ast.SelectorExpr:
			if obj := analysis.FieldVar(x.pkg, lhs); obj != nil && x.sharedObj(obj) {
				if loc, ok := x.resolveLoc(l); ok {
					x.plainStore(st, i, loc)
				}
				continue
			}
			x.rejectf(l.Pos(), "assignment to unmodeled location; "+
				"designate the field //tbtso:shared or use an atomic")
		default:
			x.rejectf(l.Pos(), "cannot model assignment to this expression")
		}
	}
}

// plainStore emits the St for a //tbtso:shared plain write.
func (x *extractor) plainStore(st *ast.AssignStmt, i int, loc string) {
	if len(st.Rhs) != len(st.Lhs) {
		x.rejectf(st.Pos(), "multi-value assignment into shared location %s is not modelable", loc)
		return
	}
	val, ok := x.opValue(st.Rhs[i], st.Pos(), "stored")
	if !ok {
		return
	}
	x.emit(st.Pos(), AbsOp{Kind: mc.OpStore, Loc: loc, Val: val})
}

// expr walks an expression in evaluation order, emitting abstract ops
// for the shared accesses it contains.
func (x *extractor) expr(e ast.Expr) {
	switch v := e.(type) {
	case nil:
	case *ast.CallExpr:
		x.call(v)
	case *ast.Ident:
		if obj := x.pkg.Info.Uses[v]; obj != nil && x.sharedObj(obj) {
			x.emit(v.Pos(), AbsOp{Kind: mc.OpLoad, Loc: v.Name})
		}
	case *ast.SelectorExpr:
		if obj := analysis.FieldVar(x.pkg, v); obj != nil && x.sharedObj(obj) {
			if loc, ok := x.resolveLoc(v); ok {
				x.emit(v.Pos(), AbsOp{Kind: mc.OpLoad, Loc: loc})
			}
			return
		}
		x.expr(v.X)
	case *ast.BinaryExpr:
		x.expr(v.X)
		x.expr(v.Y)
	case *ast.UnaryExpr:
		x.expr(v.X)
	case *ast.ParenExpr:
		x.expr(v.X)
	case *ast.StarExpr:
		x.expr(v.X)
	case *ast.IndexExpr:
		x.expr(v.X)
		x.expr(v.Index)
	case *ast.CompositeLit, *ast.FuncLit:
		if x.hasShared(e) {
			x.rejectf(e.Pos(), "shared operations inside a literal are not modelable")
		}
	}
}

// call translates one call expression.
func (x *extractor) call(call *ast.CallExpr) {
	ci := x.classify(call)
	switch ci.class {
	case ccPure, ccClock:
		// Walk arguments: a pure helper may be fed a shared load.
		for _, a := range call.Args {
			x.expr(a)
		}
	case ccFence:
		for _, a := range call.Args {
			x.expr(a)
		}
		x.emit(call.Pos(), AbsOp{Kind: mc.OpFence})
	case ccBoundWait:
		val := WaitScaled
		if md, ok := x.dirs.modelAt(x.position(call.Pos())); ok && md.isWait && md.n > 0 {
			val = md.n
		}
		x.emit(call.Pos(), AbsOp{Kind: mc.OpWait, Val: val})
	case ccBoundEligible:
		x.rejectf(call.Pos(), "Bound.Eligible outside a spin-loop condition is not modelable")
	case ccAtomic:
		x.atomicCall(call, ci.method)
	case ccThread:
		x.threadCall(call, ci.method)
	case ccUnknown:
		name := "this function"
		if ci.callee != nil {
			name = ci.callee.Name()
			if ci.callee.Pkg() != nil {
				name = ci.callee.Pkg().Name() + "." + name
			}
		}
		x.rejectf(call.Pos(), "call to %s cannot be modeled; "+
			"keep protocol kernels to atomics, tso.Thread ops, fences, bound waits and pure helpers", name)
	}
}

// atomicCall translates a sync/atomic method call. The location is the
// method receiver.
func (x *extractor) atomicCall(call *ast.CallExpr, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		x.rejectf(call.Pos(), "atomic method value is not modelable; call it directly")
		return
	}
	loc, ok := x.resolveLoc(sel.X)
	if !ok {
		return
	}
	switch method {
	case "Load":
		x.emit(call.Pos(), AbsOp{Kind: mc.OpLoad, Loc: loc})
	case "Store":
		x.expr(call.Args[0])
		val, ok := x.opValue(call.Args[0], call.Pos(), "stored")
		if !ok {
			return
		}
		x.emit(call.Pos(), AbsOp{Kind: mc.OpStore, Loc: loc, Val: val})
	case "CompareAndSwap":
		x.expr(call.Args[0])
		x.expr(call.Args[1])
		val, ok := x.casValue(call.Args[0], call.Args[1], call.Pos())
		if !ok {
			return
		}
		x.emit(call.Pos(), AbsOp{Kind: mc.OpRMW, Loc: loc, Val: val})
	case "Add":
		x.expr(call.Args[0])
		val, ok := x.opValue(call.Args[0], call.Pos(), "added")
		if !ok {
			return
		}
		x.emit(call.Pos(), AbsOp{Kind: mc.OpRMW, Loc: loc, Val: val})
	default:
		x.rejectf(call.Pos(), "atomic %s is not modelable (mc has no exchange op); "+
			"use Load/Store/CompareAndSwap/Add in protocol kernels", method)
	}
}

// threadCall translates a tso.Thread method call. The location is the
// first argument (the machine address).
func (x *extractor) threadCall(call *ast.CallExpr, method string) {
	loc := ""
	resolved := true
	if len(call.Args) > 0 && methodAddressed(method) {
		loc, resolved = x.resolveLoc(call.Args[0])
		if !resolved {
			return
		}
	}
	switch method {
	case "Load":
		x.emit(call.Pos(), AbsOp{Kind: mc.OpLoad, Loc: loc})
	case "Store":
		x.expr(call.Args[1])
		val, ok := x.opValue(call.Args[1], call.Pos(), "stored")
		if !ok {
			return
		}
		x.emit(call.Pos(), AbsOp{Kind: mc.OpStore, Loc: loc, Val: val})
	case "CAS":
		x.expr(call.Args[1])
		x.expr(call.Args[2])
		val, ok := x.casValue(call.Args[1], call.Args[2], call.Pos())
		if !ok {
			return
		}
		x.emit(call.Pos(), AbsOp{Kind: mc.OpRMW, Loc: loc, Val: val})
	case "FetchAdd":
		x.expr(call.Args[1])
		val, ok := x.opValue(call.Args[1], call.Pos(), "added")
		if !ok {
			return
		}
		x.emit(call.Pos(), AbsOp{Kind: mc.OpRMW, Loc: loc, Val: val})
	case "WaitUntil":
		md, ok := x.dirs.modelAt(x.position(call.Pos()))
		if !ok || !md.isWait {
			x.rejectf(call.Pos(), "WaitUntil needs a //tbtso:model wait (or wait=<n>) directive on its line")
			return
		}
		val := WaitScaled
		if md.n > 0 {
			val = md.n
		}
		x.emit(call.Pos(), AbsOp{Kind: mc.OpWait, Val: val})
	default:
		x.rejectf(call.Pos(), "tso.Thread.%s is not modelable in a protocol kernel", method)
	}
}

// methodAddressed reports whether a Thread method's first argument is a
// machine address.
func methodAddressed(method string) bool {
	switch method {
	case "Load", "Store", "CAS", "FetchAdd":
		return true
	}
	return false
}

// classify determines what a call means. It resolves method selections
// through go/types, so embedding and interface calls classify by the
// declaring package, not the call site's spelling.
func (x *extractor) classify(call *ast.CallExpr) callInfo {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		obj := x.pkg.Info.Uses[f]
		switch o := obj.(type) {
		case *types.Builtin, *types.TypeName:
			return callInfo{class: ccPure}
		case *types.Func:
			return x.classifyFunc(o)
		case nil:
			return callInfo{class: ccUnknown}
		default:
			// A variable of function type, a conversion to a named
			// type, etc.
			if tv, ok := x.pkg.Info.Types[fun]; ok && tv.IsType() {
				return callInfo{class: ccPure}
			}
			return callInfo{class: ccUnknown}
		}
	case *ast.SelectorExpr:
		if selInfo, ok := x.pkg.Info.Selections[f]; ok {
			// Method call.
			m, ok := selInfo.Obj().(*types.Func)
			if !ok {
				return callInfo{class: ccUnknown}
			}
			return x.classifyMethod(m)
		}
		// Qualified identifier pkg.Func or a conversion to pkg.Type.
		if obj, ok := x.pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return x.classifyFunc(obj)
		}
		if _, ok := x.pkg.Info.Uses[f.Sel].(*types.TypeName); ok {
			return callInfo{class: ccPure}
		}
		return callInfo{class: ccUnknown}
	default:
		if tv, ok := x.pkg.Info.Types[fun]; ok && tv.IsType() {
			return callInfo{class: ccPure}
		}
		return callInfo{class: ccUnknown}
	}
}

// classifyMethod classifies a resolved method by its declaring package.
// Fences are exactly tbtso-lint's fence primitives (analysis.IsFence).
func (x *extractor) classifyMethod(m *types.Func) callInfo {
	pkg := m.Pkg()
	name := m.Name()
	switch {
	case analysis.IsFence(m):
		return callInfo{class: ccFence}
	case pkg != nil && pkg.Path() == "sync/atomic":
		return callInfo{class: ccAtomic, method: name}
	case analysis.PkgIs(pkg, "internal/tso") && analysis.ReceiverTypeName(m) == "Thread":
		switch name {
		case "Clock":
			return callInfo{class: ccClock}
		case "ID", "Name", "Yield", "Machine":
			return callInfo{class: ccPure}
		}
		return callInfo{class: ccThread, method: name}
	case analysis.PkgIs(pkg, "internal/core"):
		switch name {
		case "Wait":
			return callInfo{class: ccBoundWait}
		case "Eligible":
			return callInfo{class: ccBoundEligible}
		case "Cutoff", "Name":
			// Time readings: no modeled-memory effect.
			return callInfo{class: ccPure}
		}
	}
	return x.classifyFunc(m)
}

// classifyFunc classifies a package-level function (or a method not
// covered by the special tables): module functions are pure iff their
// bodies are transitively free of shared operations; a short whitelist
// covers the external calls protocol kernels legitimately make.
func (x *extractor) classifyFunc(f *types.Func) callInfo {
	pkg := f.Pkg()
	if pkg == nil {
		return callInfo{class: ccPure} // error.Error and friends
	}
	switch pkg.Path() {
	case "runtime":
		if f.Name() == "Gosched" {
			return callInfo{class: ccPure}
		}
	}
	if analysis.PkgIs(pkg, "internal/vclock") && f.Name() == "Now" {
		return callInfo{class: ccPure}
	}
	if d, ok := x.idx.funcs[f]; ok && x.funcIsPure(f, d) {
		return callInfo{class: ccPure}
	}
	return callInfo{class: ccUnknown, callee: f}
}

// funcIsPure reports whether a module function's body is transitively
// free of shared operations (memoized; cycles resolve optimistically —
// any impure op on the cycle still marks every participant impure
// through its own body).
func (x *extractor) funcIsPure(f *types.Func, d analysis.FuncDecl) bool {
	if pure, ok := x.idx.purity[f]; ok {
		return pure
	}
	x.idx.purity[f] = true // break recursion optimistically
	pure := d.Decl.Body != nil && !x.inPkg(d.Pkg, func() bool { return x.hasShared(d.Decl.Body) })
	x.idx.purity[f] = pure
	return pure
}

// inPkg runs fn with the extractor's package temporarily switched, so
// purity checks of helpers in other packages resolve against the right
// type info.
func (x *extractor) inPkg(p *analysis.Package, fn func() bool) bool {
	old := x.pkg
	x.pkg = p
	defer func() { x.pkg = old }()
	return fn()
}

// hasShared reports whether a subtree contains any shared operation:
// an atomic/thread/fence/bound call, an impure or unknown call, or an
// access to a //tbtso:shared-designated location. Statements without
// any are skipped by the extractor; pure helpers must have none.
func (x *extractor) hasShared(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			switch x.classify(v).class {
			case ccPure, ccClock:
			default:
				found = true
			}
		case *ast.Ident:
			if obj := x.pkg.Info.Uses[v]; obj != nil && x.sharedObj(obj) {
				found = true
			}
		case *ast.SelectorExpr:
			if obj := analysis.FieldVar(x.pkg, v); obj != nil && x.sharedObj(obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// sharedObj reports whether an object's declaration carries a
// //tbtso:shared designation.
func (x *extractor) sharedObj(obj types.Object) bool {
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return x.dirs.sharedAt(x.pkg.Fset.Position(obj.Pos()))
}

// resolveLoc names the shared location an expression denotes. Naming
// rules: a parameter-rooted chain is the parameter name plus any field
// path (so the same parameter name unifies a location across the two
// roles of a pair); a receiver-rooted chain is the field path with the
// receiver dropped; a package-variable chain is the variable name plus
// path. Index expressions collapse — all elements of an array model as
// one cell, which is sound for the pairs here because the property only
// ever asks about one element.
func (x *extractor) resolveLoc(e ast.Expr) (string, bool) {
	var parts []string
	for {
		e = ast.Unparen(e)
		switch v := e.(type) {
		case *ast.Ident:
			obj := x.pkg.Info.Uses[v]
			if obj == nil {
				obj = x.pkg.Info.Defs[v]
			}
			switch {
			case obj == nil:
				x.rejectf(v.Pos(), "cannot resolve shared location %q", v.Name)
				return "", false
			case obj == x.recv:
				if len(parts) == 0 {
					x.rejectf(v.Pos(), "bare receiver is not a location")
					return "", false
				}
				return strings.Join(parts, "."), true
			case x.params[obj] || analysis.IsPackageVar(obj):
				return strings.Join(append([]string{v.Name}, parts...), "."), true
			default:
				x.rejectf(v.Pos(), "shared location rooted at local %q is not nameable; "+
					"take it as a parameter or a receiver field", v.Name)
				return "", false
			}
		case *ast.SelectorExpr:
			if _, isPkg := x.pkg.Info.Uses[identOf(v.X)].(*types.PkgName); isPkg {
				return strings.Join(append([]string{v.Sel.Name}, parts...), "."), true
			}
			parts = append([]string{v.Sel.Name}, parts...)
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				x.rejectf(v.Pos(), "cannot name this location expression")
				return "", false
			}
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			x.rejectf(e.Pos(), "cannot name this location expression; "+
				"shared locations must be fields, parameters or package variables")
			return "", false
		}
	}
}

func identOf(e ast.Expr) *ast.Ident {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id
	}
	return &ast.Ident{}
}

// opValue determines the abstract value written by a store or added by
// an RMW: a //tbtso:model val directive on the line wins, then exact
// constant folding; anything else is rejected.
func (x *extractor) opValue(e ast.Expr, at token.Pos, what string) (int, bool) {
	if md, ok := x.dirs.modelAt(x.position(at)); ok && md.isVal {
		return md.n, true
	}
	if v, ok := x.constInt(e); ok {
		return v, true
	}
	x.rejectf(at, "non-constant %s value; add //tbtso:model val=<n> giving the abstract value", what)
	return 0, false
}

// casValue determines the RMW delta modeling a successful CAS: the
// model directive, or new-old when both fold to constants.
func (x *extractor) casValue(oldE, newE ast.Expr, at token.Pos) (int, bool) {
	if md, ok := x.dirs.modelAt(x.position(at)); ok && md.isVal {
		return md.n, true
	}
	oldV, ok1 := x.constInt(oldE)
	newV, ok2 := x.constInt(newE)
	if ok1 && ok2 {
		return newV - oldV, true
	}
	x.rejectf(at, "non-constant CAS operands; add //tbtso:model val=<n> giving the abstract delta of a successful CAS")
	return 0, false
}

func (x *extractor) constInt(e ast.Expr) (int, bool) {
	tv, ok := x.pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	iv := constant.ToInt(tv.Value)
	if iv.Kind() != constant.Int {
		return 0, false
	}
	n, exact := constant.Int64Val(iv)
	if !exact {
		return 0, false
	}
	return int(n), true
}
