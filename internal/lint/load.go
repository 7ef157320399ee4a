package lint

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

// Package is one loaded, type-checked package of the analyzed program.
type Package struct {
	// Path is the import path ("gridrealloc/internal/batch").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed sources (test files excluded), with comments.
	Files []*ast.File
	// Types and Info are the type-checker outputs.
	Types *types.Package
	Info  *types.Info
}

// Program is the set of packages one gridlint run analyzes, plus the
// cross-package indexes analyzers consult: the directive index (which file
// line carries which //gridlint: word) and the mapping from type-checker
// objects back to their declarations.
type Program struct {
	Fset     *token.FileSet
	Packages map[string]*Package

	directives directiveIndex
	funcDecls  map[*types.Func]*ast.FuncDecl
	typeDecls  map[*types.TypeName]*typeDecl
}

type typeDecl struct {
	spec *ast.TypeSpec
	doc  *ast.CommentGroup
}

// Sorted returns the loaded packages in import-path order.
func (p *Program) Sorted() []*Package {
	pkgs := make([]*Package, 0, len(p.Packages))
	//gridlint:unordered-ok packages are collected then sorted by path
	for _, pkg := range p.Packages {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs
}

// FuncHasDirective reports whether the function's declaration carries the
// directive. Functions without a loaded declaration (std library, funcs from
// packages outside the program) never do.
func (p *Program) FuncHasDirective(fn *types.Func, dir string) bool {
	decl, ok := p.funcDecls[fn]
	if !ok {
		return false
	}
	return nodeHasDirective(p.Fset, p.directives, decl, decl.Doc, dir)
}

// TypeHasDirective reports whether the named type's declaration carries the
// directive.
func (p *Program) TypeHasDirective(tn *types.TypeName, dir string) bool {
	decl, ok := p.typeDecls[tn]
	if !ok {
		return false
	}
	return nodeHasDirective(p.Fset, p.directives, decl.spec, decl.doc, dir)
}

// ObjectHasDirective reports whether the directive appears on the object's
// declaration line (or the line above it). Used for struct fields and
// package-level variables, whose declarations are single lines.
func (p *Program) ObjectHasDirective(obj types.Object, dir string) bool {
	return p.directives.hasDirectiveAt(p.Fset.Position(obj.Pos()), dir)
}

// NodeHasDirective reports whether the directive is attached to the node
// (its first line or the line above).
func (p *Program) NodeHasDirective(node ast.Node, dir string) bool {
	return p.directives.hasDirectiveAt(p.Fset.Position(node.Pos()), dir)
}

// DeclOf returns the loaded declaration of fn, or nil.
func (p *Program) DeclOf(fn *types.Func) *ast.FuncDecl { return p.funcDecls[fn] }

// InfoFor returns the type-checker Info of the package fn is declared in, or
// nil for functions outside the loaded program. Interprocedural analyzers
// need it to inspect a declaration from a package other than the one the
// pass is running on — Info maps are per-package.
func (p *Program) InfoFor(fn *types.Func) *types.Info {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if pkg := p.Packages[fn.Pkg().Path()]; pkg != nil {
		return pkg.Info
	}
	return nil
}

// CalleeOf resolves a call expression to the statically called function, or
// nil for calls through values, builtins and conversions. Generic
// instantiations resolve to their origin function, which is where the
// declaration (and any directives) live.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		// Explicitly instantiated generic: f[T](...).
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if origin := fn.Origin(); origin != nil {
		return origin
	}
	return fn
}

// Loader loads and type-checks packages from source, with no toolchain
// invocation and no dependency on export data: module packages are resolved
// under Root, everything else falls back to the standard library's own
// source importer. That keeps the analyzers usable in this dependency-free
// module (golang.org/x/tools is unavailable by policy) at the cost of
// re-checking imports from source on each run.
type Loader struct {
	// Root is the directory packages are resolved under.
	Root string
	// Module is the import-path prefix that maps to Root. Empty means
	// GOPATH-style resolution (import path == directory under Root), which
	// is what the analysistest fixtures use.
	Module string

	fset    *token.FileSet
	std     types.Importer
	prog    *Program
	loading map[string]bool
}

// NewLoader returns a loader rooted at dir for the given module path.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		Module:  module,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		loading: make(map[string]bool),
		prog: &Program{
			Fset:       fset,
			Packages:   make(map[string]*Package),
			directives: make(directiveIndex),
			funcDecls:  make(map[*types.Func]*ast.FuncDecl),
			typeDecls:  make(map[*types.TypeName]*typeDecl),
		},
	}
}

// Load type-checks the packages with the given import paths (plus anything
// they import) and returns the resulting program. It may be called once
// with every path of interest; repeated paths are checked once.
func (l *Loader) Load(paths ...string) (*Program, error) {
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", path, err)
		}
	}
	return l.prog, nil
}

// Program returns the packages loaded so far.
func (l *Loader) Program() *Program { return l.prog }

// dirFor maps an import path to a source directory under Root, or "" when
// the path is not part of the analyzed tree (std library, external).
func (l *Loader) dirFor(path string) string {
	switch {
	case l.Module == "":
		return filepath.Join(l.Root, filepath.FromSlash(path))
	case path == l.Module:
		return l.Root
	case strings.HasPrefix(path, l.Module+"/"):
		return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
	default:
		return ""
	}
}

// Import implements types.Importer so the type-checker resolves the
// analyzed module's internal imports through the loader itself.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.prog.Packages[path]; ok {
		return pkg.Types, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return l.std.Import(path)
	}
	if info, err := os.Stat(dir); err != nil || !info.IsDir() {
		// GOPATH-style roots (fixtures) may still import std packages.
		if l.Module == "" {
			return l.std.Import(path)
		}
		return nil, fmt.Errorf("no directory for import %q (looked in %s)", path, dir)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	pkg, err := l.check(path, dir)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

func (l *Loader) check(path, dir string) (*Package, error) {
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
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go source in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.prog.Packages[path] = pkg
	l.index(pkg)
	return pkg, nil
}

// index merges the package's directives and declaration maps into the
// program-wide indexes analyzers consult across package boundaries.
func (l *Loader) index(pkg *Package) {
	//gridlint:unordered-ok map-to-map merge of per-file directive entries
	for file, lines := range indexDirectives(l.fset, pkg.Files) {
		m := l.prog.directives[file]
		if m == nil {
			m = make(map[int][]directiveEntry)
			l.prog.directives[file] = m
		}
		//gridlint:unordered-ok per-line entry lists are independent
		for line, entries := range lines {
			m[line] = append(m[line], entries...)
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
					l.prog.funcDecls[fn] = d
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					l.prog.typeDecls[tn] = &typeDecl{spec: ts, doc: doc}
				}
			}
		}
	}
}

// ModulePackages returns the import paths of every package under the
// loader's root, in sorted order, skipping hidden directories, testdata
// trees and, as go list ./... does, any subdirectory holding its own go.mod
// (a nested module is not part of this one). Directories without non-test
// Go files are omitted.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		hasGo := false
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			if p != l.Root && e.Name() == "go.mod" {
				return filepath.SkipDir
			}
			if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(l.Root, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.Module)
		} else {
			paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
