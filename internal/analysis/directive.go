package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces every //tbtso: annotation.
const directivePrefix = "//tbtso:"

// directiveNames is the whole //tbtso: grammar, read by two tools:
// tbtso-lint consumes fencefree, requires-fence and ignore; tbtso-verify
// (package extract) consumes verify, property, model and shared. Any
// other name is a typo, and both tools report it wherever it appears.
var directiveNames = map[string]bool{
	"fencefree": true, "requires-fence": true, "ignore": true,
	"verify": true, "property": true, "model": true, "shared": true,
}

// Placement says which syntax a directive's comment is attached to.
type Placement int

const (
	// PlaceLine is any other comment: trailing a statement or standing
	// on its own line.
	PlaceLine Placement = iota
	// PlaceFuncDoc is a function declaration's doc comment.
	PlaceFuncDoc
	// PlaceDecl is the doc or trailing comment of a non-function
	// declaration: a var, const, type, import or struct field.
	PlaceDecl
)

// Directive is one //tbtso:<name> <args> comment.
type Directive struct {
	Name      string
	Args      string // the rest of the line, trimmed
	Pos       token.Position
	Placement Placement
	// Func is the documented function when Placement is PlaceFuncDoc.
	Func *ast.FuncDecl
}

// Directives walks every comment of p once and returns its known
// //tbtso: directives in source order. Unknown names are reported as
// diagnostics under check instead: each tool files them under its own
// check name.
func Directives(p *Package, check string) ([]Directive, []Diagnostic) {
	var dirs []Directive
	var diags []Diagnostic
	for _, f := range p.Files {
		place := placements(f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				name, args, _ := strings.Cut(body, " ")
				name = strings.TrimSpace(name)
				if !directiveNames[name] {
					diags = append(diags, Diagnostic{
						Pos:     p.Fset.Position(c.Pos()),
						Check:   check,
						Message: "unknown directive " + directivePrefix + name,
					})
					continue
				}
				d := Directive{Name: name, Args: strings.TrimSpace(args), Pos: p.Fset.Position(c.Pos())}
				if fd, ok := place[cg].(*ast.FuncDecl); ok {
					d.Placement, d.Func = PlaceFuncDoc, fd
				} else if place[cg] != nil {
					d.Placement = PlaceDecl
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs, diags
}

// placements maps each doc or trailing comment group of f's
// declarations to the node it is attached to.
func placements(f *ast.File) map[*ast.CommentGroup]ast.Node {
	m := make(map[*ast.CommentGroup]ast.Node)
	add := func(n ast.Node, groups ...*ast.CommentGroup) {
		for _, cg := range groups {
			if cg != nil {
				m[cg] = n
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			add(n, n.Doc)
		case *ast.GenDecl:
			add(n, n.Doc)
		case *ast.ValueSpec:
			add(n, n.Doc, n.Comment)
		case *ast.TypeSpec:
			add(n, n.Doc, n.Comment)
		case *ast.ImportSpec:
			add(n, n.Doc, n.Comment)
		case *ast.Field:
			add(n, n.Doc, n.Comment)
		}
		return true
	})
	return m
}
