package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	Path  string // import path, e.g. "tbtso/internal/smr"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of the enclosing Go module
// from source, resolving module-internal imports itself (lazily, with
// cycle detection) and delegating everything else to the toolchain's
// export-data importer. All packages share one FileSet and one
// type-identity universe, which is what lets the checks compare
// types.Object values across packages.
type Loader struct {
	ModuleRoot string // directory containing go.mod
	ModulePath string // module path declared in go.mod

	fset    *token.FileSet
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle detection
	gc      types.Importer      // export-data importer for non-module packages
}

// NewLoader locates the module containing dir (walking up to go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		gc:         importer.Default(),
	}, nil
}

// Fset returns the shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer: module-internal paths load from
// source; everything else goes to the export-data importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirFor(path); ok {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.gc.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// load parses and type-checks one module package directory (test files
// excluded — the discipline under analysis lives in the shipped code).
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: l}
	tp, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tp, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Load resolves the given patterns to packages. Supported patterns:
// "./..." (every package under the module root), a relative directory
// ("./internal/smr" or "internal/smr"), or a full import path inside
// the module. Directories named testdata, vendor, or starting with "."
// or "_" are skipped by the wildcard, matching go tooling conventions.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []*Package
	add := func(path, dir string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		p, err := l.load(path, dir)
		if err != nil {
			return err
		}
		out = append(out, p)
		return nil
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := l.packageDirs()
			if err != nil {
				return nil, err
			}
			for _, dir := range dirs {
				rel, _ := filepath.Rel(l.ModuleRoot, dir)
				path := l.ModulePath
				if rel != "." {
					path = l.ModulePath + "/" + filepath.ToSlash(rel)
				}
				if err := add(path, dir); err != nil {
					return nil, err
				}
			}
		default:
			dir := pat
			if dirAbs, ok := l.dirFor(pat); ok {
				dir = dirAbs
			} else if !filepath.IsAbs(dir) {
				dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			}
			rel, err := filepath.Rel(l.ModuleRoot, dir)
			if err != nil || strings.HasPrefix(rel, "..") {
				return nil, fmt.Errorf("analysis: %s is outside module %s", pat, l.ModulePath)
			}
			path := l.ModulePath
			if rel != "." {
				path = l.ModulePath + "/" + filepath.ToSlash(rel)
			}
			if err := add(path, dir); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadModule locates the module containing dir and loads the packages
// matching patterns in one shared type-checking pass, returning the
// packages and the module root. It is the single entry point the CLIs
// (tbtso-lint, tbtso-verify) share: one invocation pays for exactly one
// importer/type-check setup, and every check or extraction that follows
// runs over the same []*Package, so type identities agree everywhere.
func LoadModule(dir string, patterns ...string) ([]*Package, string, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, "", err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, "", err
	}
	return pkgs, l.ModuleRoot, nil
}

// packageDirs walks the module tree collecting directories that contain
// at least one non-test Go file.
func (l *Loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.ModuleRoot &&
				(name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}
