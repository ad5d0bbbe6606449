package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// funcFacts records the directives attached to one function declaration.
type funcFacts struct {
	decl          *ast.FuncDecl
	pkg           *Package
	fenceFree     bool
	requiresFence bool
}

// funcRange is the source extent of a function whose doc comment
// carries a justified //tbtso:ignore.
type funcRange struct {
	file       string
	start, end int // line numbers, inclusive
	check      string
}

// factTable aggregates annotation facts across all packages.
type factTable struct {
	// byFunc maps the types object of each module function declaration
	// to its facts (most have no directives).
	byFunc map[*types.Func]*funcFacts
	// bodies maps module function objects to their declarations, for
	// transitive traversal.
	bodies map[*types.Func]*ast.FuncDecl
	// declPkg maps module function objects to their package (for Info
	// lookups while traversing bodies).
	declPkg map[*types.Func]*Package
	// lineIgnores maps filename -> line -> checks a justified
	// //tbtso:ignore on that line suppresses (on its own line and the
	// line below, so both trailing and comment-above styles work).
	lineIgnores map[string]map[int]map[string]bool
	funcRanges  []funcRange
	// modulePath scopes "same module" decisions.
	modulePath string

	annotationErrors []Diagnostic
}

// collectFacts scans every package for directives and function bodies.
func collectFacts(pkgs []*Package) *factTable {
	ft := &factTable{
		byFunc:      make(map[*types.Func]*funcFacts),
		bodies:      make(map[*types.Func]*ast.FuncDecl),
		declPkg:     make(map[*types.Func]*Package),
		lineIgnores: make(map[string]map[int]map[string]bool),
	}
	if len(pkgs) > 0 {
		ft.modulePath = moduleOf(pkgs[0].Path)
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ft.byFunc[obj] = &funcFacts{decl: fd, pkg: p}
				if fd.Body != nil {
					ft.bodies[obj] = fd
					ft.declPkg[obj] = p
				}
			}
		}
		dirs, errs := Directives(p, CheckAnnotation)
		ft.annotationErrors = append(ft.annotationErrors, errs...)
		for _, d := range dirs {
			ft.apply(p, d)
		}
	}
	for _, facts := range ft.byFunc {
		if facts.fenceFree && facts.requiresFence {
			ft.annotationErrors = append(ft.annotationErrors, Diagnostic{
				Pos:     facts.pkg.Fset.Position(facts.decl.Name.Pos()),
				Check:   CheckAnnotation,
				Message: "function is annotated both //tbtso:fencefree and //tbtso:requires-fence",
			})
		}
	}
	return ft
}

// moduleOf extracts the module path prefix from an import path loaded
// by our Loader ("tbtso/internal/smr" -> "tbtso").
func moduleOf(path string) string {
	if i := strings.Index(path, "/"); i >= 0 {
		return path[:i]
	}
	return path
}

// apply records one lint directive. fencefree and requires-fence count
// only in a function's doc comment; the extraction directives (verify,
// property, model, shared) belong to tbtso-verify.
func (ft *factTable) apply(p *Package, d Directive) {
	var facts *funcFacts
	if d.Func != nil {
		if obj, ok := p.Info.Defs[d.Func.Name].(*types.Func); ok {
			facts = ft.byFunc[obj]
		}
	}
	switch {
	case d.Name == "fencefree" && facts != nil:
		facts.fenceFree = true
	case d.Name == "requires-fence" && facts != nil:
		facts.requiresFence = true
	case d.Name == "ignore":
		check, justified := parseIgnoreArgs(d.Args)
		if !ft.validateIgnore(d.Pos, check, justified) {
			return
		}
		m := ft.lineIgnores[d.Pos.Filename]
		if m == nil {
			m = make(map[int]map[string]bool)
			ft.lineIgnores[d.Pos.Filename] = m
		}
		if m[d.Pos.Line] == nil {
			m[d.Pos.Line] = make(map[string]bool)
		}
		m[d.Pos.Line][check] = true
		if d.Func != nil {
			// In a doc comment the ignore covers the whole function.
			ft.funcRanges = append(ft.funcRanges, funcRange{
				file:  d.Pos.Filename,
				start: p.Fset.Position(d.Func.Pos()).Line,
				end:   p.Fset.Position(d.Func.End()).Line,
				check: check,
			})
		}
	}
}

// validateIgnore reports grammar problems with an ignore directive; it
// returns false when the directive must not take effect.
func (ft *factTable) validateIgnore(pos token.Position, check string, justified bool) bool {
	if check == "" || !ValidCheck(check) {
		ft.annotationErrors = append(ft.annotationErrors, Diagnostic{
			Pos:     pos,
			Check:   CheckAnnotation,
			Message: "//tbtso:ignore needs a known check name (" + strings.Join(AllChecks, ", ") + " or all), got " + strings.TrimSpace("\""+check+"\""),
		})
		return false
	}
	if !justified {
		ft.annotationErrors = append(ft.annotationErrors, Diagnostic{
			Pos:     pos,
			Check:   CheckAnnotation,
			Message: "//tbtso:ignore " + check + " has no justification; write //tbtso:ignore " + check + " <why this is safe>",
		})
		return false
	}
	return true
}

// parseIgnoreArgs splits "check justification..." after an ignore.
func parseIgnoreArgs(rest string) (check string, justified bool) {
	fields := strings.SplitN(rest, " ", 2)
	check = strings.TrimSpace(fields[0])
	justified = len(fields) == 2 && strings.TrimSpace(fields[1]) != ""
	return check, justified
}

// suppressed reports whether a diagnostic of the given check at pos is
// covered by a justified ignore (same line, the line above, or an
// enclosing function-scoped ignore).
func (ft *factTable) suppressed(check string, pos token.Position) bool {
	if m := ft.lineIgnores[pos.Filename]; m != nil {
		for _, line := range [2]int{pos.Line, pos.Line - 1} {
			if m[line][check] || m[line]["all"] {
				return true
			}
		}
	}
	for _, fr := range ft.funcRanges {
		if fr.file == pos.Filename && pos.Line >= fr.start && pos.Line <= fr.end &&
			(fr.check == check || fr.check == "all") {
			return true
		}
	}
	return false
}

// isModuleFunc reports whether fn is declared inside the module under
// analysis (as opposed to stdlib or elsewhere).
func (ft *factTable) isModuleFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && (fn.Pkg().Path() == ft.modulePath ||
		strings.HasPrefix(fn.Pkg().Path(), ft.modulePath+"/"))
}
