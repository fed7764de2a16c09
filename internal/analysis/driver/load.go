package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// Package is one loaded, parsed and type-checked package, ready for
// analyzers.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	// Files holds the package's GoFiles plus its in-package _test.go
	// files. External (package foo_test) test files become their own
	// Package with ImportPath suffixed "_test".
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors are non-fatal type-checking problems. Analyzers still
	// run; the driver surfaces them as diagnostics so a broken tree
	// cannot silently pass the lint gate.
	TypeErrors []error
	// Dep marks a module package that no pattern matched but a matched
	// package or its tests import, directly or indirectly. It is loaded
	// without its tests; Run analyzes it so its facts flow to its
	// importers, and reports none of its findings.
	Dep bool
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	Dir          string
	ImportPath   string
	Export       string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Error        *struct{ Err string }
}

// Loader loads packages for analysis using the go command for metadata and
// go/types for type checking. Every module package is type-checked from
// source, so each exists once however a pattern reaches it; only the
// standard library comes from compiled export data. It is safe to load
// several pattern sets through one Loader. Packages type-checked from
// source register themselves for later imports, which both gives external
// test packages visibility into in-package test helpers and lets testdata
// trees form multi-package import chains.
type Loader struct {
	// Dir is the working directory for go command invocations; empty
	// means the current directory. It must lie inside the target module.
	Dir string

	fset    *token.FileSet
	exports map[string]string // standard-library import path -> export data file
	local   map[string]*types.Package
	gc      types.Importer
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
		local:   make(map[string]*types.Package),
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import resolves an import for type checking: local source-checked
// packages first, then gc export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p := l.local[path]; p != nil {
		return p, nil
	}
	return l.gc.Import(path)
}

// lookup feeds compiled export data to the gc importer.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	exp := l.exports[path]
	if exp == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(exp)
}

// goList runs `go list -json` with the given extra flags and arguments,
// records export data for every listed package that has some, and
// returns the listed packages.
func (l *Loader) goList(extra ...string) ([]*listedPkg, error) {
	args := []string{"list", "-e", "-json=Dir,ImportPath,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,Error"}
	args = append(args, extra...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %v: %v\n%s", args, err, stderr.Bytes())
	}
	var listed []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// unit is one package to check from source: GoFiles plus TestGoFiles, the
// XTestGoFiles of an external test package, or a dependency's GoFiles.
type unit struct {
	path, dir      string
	files, imports []string
	dep            bool
	state          int // 0 new, 1 visiting, 2 done
}

// Load lists patterns, then parses and type-checks every matched package,
// with its in-package test files, every external test package, and every
// module package they import, directly or indirectly, as a Dep. It
// returns them in dependency order: each package follows every loaded
// package it imports, whether through its own files, its in-package test
// files or, for an external test package, its subject. Run threads facts
// along that order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	roots, err := l.goList(append([]string{"--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var units []*unit
	for _, r := range roots {
		if r.Standard {
			continue
		}
		units = append(units, &unit{
			path:    r.ImportPath,
			dir:     r.Dir,
			files:   append(append([]string{}, r.GoFiles...), r.TestGoFiles...),
			imports: append(append([]string{}, r.Imports...), r.TestImports...),
		}, &unit{
			path:    r.ImportPath + "_test",
			dir:     r.Dir,
			files:   r.XTestGoFiles,
			imports: append(append([]string{}, r.XTestImports...), r.ImportPath),
		})
	}
	return l.checkAll(units)
}

// LoadDir parses and type-checks the .go files of one directory outside the
// go command's view (e.g. a testdata source tree), under the given import
// path. Imports resolve through earlier LoadDir packages first; module
// packages are type-checked from source as Load's dependencies are, and
// the standard library comes from export data — so testdata trees can
// form multi-package import chains and use the real simulator types.
func (l *Loader) LoadDir(importPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	u := &unit{path: importPath, dir: dir}
	fset := token.NewFileSet()
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		u.files = append(u.files, e.Name())
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			u.imports = append(u.imports, path)
		}
	}
	if len(u.files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	pkgs, err := l.checkAll([]*unit{u})
	if err != nil {
		return nil, err
	}
	// Every other package checked here is a dependency of u, so u is last.
	return pkgs[len(pkgs)-1], nil
}

// checkAll adds to units every module package their imports reach that
// is not yet loaded, records export data for the standard-library
// packages among those imports, and type-checks them all in dependency
// order. A unit without files is skipped.
func (l *Loader) checkAll(units []*unit) ([]*Package, error) {
	byPath := make(map[string]*unit)
	for _, u := range units {
		byPath[u.path] = u
	}
	missing := func(path string) bool {
		return path != "C" && path != "unsafe" && byPath[path] == nil && l.local[path] == nil && l.exports[path] == ""
	}
	need := map[string]bool{}
	for _, u := range units {
		for _, imp := range u.imports {
			if missing(imp) {
				need[imp] = true
			}
		}
	}
	if len(need) > 0 {
		listed, err := l.goList(append([]string{"-deps", "--"}, slices.Sorted(maps.Keys(need))...)...)
		if err != nil {
			return nil, err
		}
		var std []string
		for _, p := range listed {
			switch {
			case p.Standard:
				std = append(std, p.ImportPath)
			case missing(p.ImportPath):
				u := &unit{path: p.ImportPath, dir: p.Dir, files: p.GoFiles, imports: p.Imports, dep: true}
				units = append(units, u)
				byPath[u.path] = u
			}
		}
		if len(std) > 0 {
			if _, err := l.goList(append([]string{"-export", "--"}, std...)...); err != nil {
				return nil, err
			}
		}
	}

	var pkgs []*Package
	var visit func(u *unit) error
	visit = func(u *unit) error {
		switch u.state {
		case 1:
			return fmt.Errorf("import cycle through %s", u.path)
		case 2:
			return nil
		}
		u.state = 1
		for _, imp := range u.imports {
			if dep := byPath[imp]; dep != nil && dep != u {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		u.state = 2
		if len(u.files) == 0 {
			return nil
		}
		pkg, err := l.check(u.path, u.dir, u.files)
		if err != nil {
			return err
		}
		pkg.Dep = u.dep
		pkgs = append(pkgs, pkg)
		return nil
	}
	for _, u := range units {
		if err := visit(u); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// check parses and type-checks one package from the given file names
// (relative to dir), registering the result for later imports.
func (l *Loader) check(importPath, dir string, fileNames []string) (*Package, error) {
	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: l.fset}
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: importerFunc(l.Import),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	if tpkg == nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	pkg.Types = tpkg
	l.local[importPath] = tpkg
	return pkg, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
