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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	Dir          string
	ImportPath   string
	Name         string
	Export       string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Incomplete   bool
	Error        *listedErr
	DepsErrors   []*listedErr
}

type listedErr struct {
	Err string
}

// Loader loads packages for analysis using the go command for metadata and
// compiled export data, and go/types for type checking. It is safe to load
// several pattern sets through one Loader. Packages type-checked from source
// register themselves and take precedence over export data for later
// imports, which both gives external test packages visibility into
// in-package test helpers and lets testdata trees form multi-package import
// chains without any export data existing for them.
type Loader struct {
	// Dir is the working directory for go command invocations; empty
	// means the current directory. It must lie inside the target module.
	Dir string

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
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
	exp, ok := l.exports[path]
	if !ok {
		// An import no root makes (a testdata tree's, say): resolve it
		// on demand.
		if err := l.goList(nil, "-export", "--", path); err != nil {
			return nil, fmt.Errorf("resolving import %q: %w", path, err)
		}
		exp = l.exports[path]
	}
	if exp == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(exp)
}

// goList runs `go list -json` with the given extra flags and arguments,
// recording export data for every listed package and appending each to
// roots (when roots is non-nil).
func (l *Loader) goList(roots *[]*listedPkg, extra ...string) error {
	args := []string{"list", "-e", "-json=Dir,ImportPath,Name,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,Incomplete,Error,DepsErrors"}
	args = append(args, extra...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go %v: %v\n%s", args, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if roots != nil {
			q := p
			*roots = append(*roots, &q)
		}
	}
	return nil
}

// list resolves patterns to root packages and records compiled export
// data for every package a root imports, test files included, that is not
// a root itself. Roots are type-checked from source, and export data is
// self-contained, so nothing further down the import graph is read.
func (l *Loader) list(patterns ...string) ([]*listedPkg, error) {
	var roots []*listedPkg
	if err := l.goList(&roots, append([]string{"--"}, patterns...)...); err != nil {
		return nil, err
	}
	need := map[string]bool{}
	for _, r := range roots {
		for _, imps := range [][]string{r.Imports, r.TestImports, r.XTestImports} {
			for _, imp := range imps {
				if imp != "C" && imp != "unsafe" {
					need[imp] = true
				}
			}
		}
	}
	for _, r := range roots {
		delete(need, r.ImportPath)
	}
	if len(need) == 0 {
		return roots, nil
	}
	paths := make([]string, 0, len(need))
	for p := range need {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return roots, l.goList(nil, append([]string{"-export", "--"}, paths...)...)
}

// Load lists patterns, then parses and type-checks every matched package,
// with its in-package test files, and every external test package, and
// returns them in dependency order: each package follows every loaded
// package it imports, whether through its own files, its in-package test
// files or, for an external test package, its subject. Run threads facts
// along that order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	roots, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}

	// unit is one package to check: GoFiles plus TestGoFiles, or the
	// XTestGoFiles of an external test package.
	type unit struct {
		path, dir      string
		files, imports []string
		state          int // 0 new, 1 visiting, 2 done
	}
	var units []*unit
	byPath := make(map[string]*unit)
	add := func(u *unit) {
		if len(u.files) > 0 {
			units = append(units, u)
			byPath[u.path] = u
		}
	}
	for _, r := range roots {
		if r.Standard {
			continue
		}
		add(&unit{
			path:    r.ImportPath,
			dir:     r.Dir,
			files:   append(append([]string{}, r.GoFiles...), r.TestGoFiles...),
			imports: append(append([]string{}, r.Imports...), r.TestImports...),
		})
		add(&unit{
			path:    r.ImportPath + "_test",
			dir:     r.Dir,
			files:   r.XTestGoFiles,
			imports: append(append([]string{}, r.XTestImports...), r.ImportPath),
		})
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
		pkg, err := l.check(u.path, u.dir, u.files)
		if err != nil {
			return err
		}
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

// LoadDir parses and type-checks the .go files of one directory outside the
// go command's view (e.g. a testdata source tree), under the given import
// path. Imports resolve through earlier LoadDir packages first, then
// compiled export data — so testdata trees can form multi-package
// import chains.
func (l *Loader) LoadDir(importPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.check(importPath, dir, files)
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
