package durassd_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// module is the import path of this repository's module.
const module = "durassd"

// allowlistFile lists the functions that no tool links, one a line: the
// linker name, then a reason.
const allowlistFile = "testdata/unlinked.txt"

// TestEveryFunctionIsLinked fails on a non-test function that no cmd/* or
// examples/* binary links and the allowlist does not name, and on an
// allowlist entry that is linked or no longer declared. Code that only
// tests call is either a test helper, which belongs in a _test.go file,
// or dead. It also fails on a package that no main imports, which the
// function check alone misses when the package declares only types,
// variables or constants. Test-helper packages (named …test, such as
// checktest and storagetest) are exempt.
func TestEveryFunctionIsLinked(t *testing.T) {
	decls, pkgs, mains := declaredFuncs(t, ".")
	for _, p := range unreached(pkgs, deps(t, mains)) {
		t.Errorf("package %s is imported by no cmd/* or examples/* main; delete it, or move what only tests use into _test.go files", p)
	}
	linked := linkedSymbols(t, mains)
	listed := readAllowlist(t, allowlistFile)
	allowed := make(map[string]bool, len(listed))
	for _, sym := range listed {
		allowed[sym] = true
	}

	var unlisted []string
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.sym] = true
		switch in := d.linkedIn(linked); {
		case in && allowed[d.sym]:
			t.Errorf("%s: %s is linked; remove it from %s", d.pos, d.sym, allowlistFile)
		case !in && !allowed[d.sym]:
			unlisted = append(unlisted, d.pos+": "+d.sym)
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("%d functions are linked into no cmd/* or examples/* binary; delete them, move them into a _test.go file, or list them with a reason in %s:\n\t%s",
			len(unlisted), allowlistFile, strings.Join(unlisted, "\n\t"))
	}
	for _, sym := range listed {
		if !declared[sym] {
			t.Errorf("%s lists %s, which is not declared", allowlistFile, sym)
		}
	}
}

// funcDecl is one non-test function declaration: its linker name, its
// pointer wrapper's name if it is a value method, and its position.
type funcDecl struct {
	sym, wrapper string
	pos          string
}

// linkedIn reports whether d's symbol or its pointer wrapper is in linked.
func (d funcDecl) linkedIn(linked map[string]bool) bool {
	return linked[d.sym] || d.wrapper != "" && linked[d.wrapper]
}

// declaredFuncs parses every non-test Go file under root, the module's
// directory, and returns each function's linker name, in file order, the
// import paths of the packages those files make up, and those of the main
// packages under cmd/ and examples/. It skips testdata, files that build
// constraints exclude on this platform, init functions and the test-helper
// packages.
func declaredFuncs(t *testing.T, root string) (decls []funcDecl, pkgs, mains []string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgSet, mainSet := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), e.Name()); err != nil || !ok {
			return err // a file for another platform: no binary built here links it
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(f.Name.Name, "test") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := path.Join(module, path.Dir(rel))
		pkgSet[pkg] = true
		if f.Name.Name == "main" {
			top, _, _ := strings.Cut(rel, "/")
			if top == "cmd" || top == "examples" {
				mainSet[pkg] = true
			}
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if sym, wrapper := symbols(pkg, fd); sym != "" {
					decls = append(decls, funcDecl{sym: sym, wrapper: wrapper, pos: fset.Position(fd.Pos()).String()})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, sortedKeys(pkgSet), sortedKeys(mainSet)
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// deps returns the import paths of the main packages and of every package
// they import, directly or not.
func deps(t *testing.T, mains []string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list", "-deps"}, mains...)...).Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	reached := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		reached[p] = true
	}
	return reached
}

// unreached returns the packages of pkgs that reached does not hold, in
// pkgs' order.
func unreached(pkgs []string, reached map[string]bool) []string {
	var out []string
	for _, p := range pkgs {
		if !reached[p] {
			out = append(out, p)
		}
	}
	return out
}

// symbols returns the linker's name for a function declared in package
// pkg: pkg.F, pkg.T.M or pkg.(*T).M, with type parameters dropped. For a
// value method it also returns its pointer wrapper's name, pkg.(*T).M,
// which counts as linking the method: the wrapper may carry its body. It
// returns "" for init, which every importer links and no caller names.
func symbols(pkg string, fd *ast.FuncDecl) (sym, wrapper string) {
	if fd.Recv == nil {
		if fd.Name.Name == "init" {
			return "", ""
		}
		return pkg + "." + fd.Name.Name, ""
	}
	typ := fd.Recv.List[0].Type
	star, isStar := typ.(*ast.StarExpr)
	if isStar {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if isStar {
		return pkg + ".(*" + recv + ")." + fd.Name.Name, ""
	}
	return pkg + "." + recv + "." + fd.Name.Name, pkg + ".(*" + recv + ")." + fd.Name.Name
}

// linkedSymbols builds every main package with inlining off, so that an
// inlined function keeps its symbol, and returns the union of the
// binaries' text symbols with type arguments dropped. A main package's
// symbols are renamed from main.F to <its import path>.F.
func linkedSymbols(t *testing.T, mains []string) map[string]bool {
	t.Helper()
	if len(mains) == 0 {
		t.Fatal("no main package under cmd/ or examples/")
	}
	dir := t.TempDir()
	byName := map[string]string{}
	for _, m := range mains {
		if prev, ok := byName[path.Base(m)]; ok {
			t.Fatalf("%s and %s build to the same binary name", prev, m)
		}
		byName[path.Base(m)] = m
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, mains...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := map[string]bool{}
	for name, m := range byName {
		bin := filepath.Join(dir, name)
		if _, err := os.Stat(bin); err != nil {
			bin += ".exe"
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			sym, ok := textSymbol(line)
			if !ok {
				continue
			}
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = m + "." + rest
			}
			linked[sym] = true
		}
	}
	return linked
}

// textSymbol parses one line of `go tool nm` output ("addr type name") and
// returns the name of a text symbol with its type arguments dropped.
func textSymbol(line string) (string, bool) {
	parts := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(parts) != 3 || (parts[1] != "T" && parts[1] != "t") {
		return "", false
	}
	return stripTypeArgs(parts[2]), true
}

// stripTypeArgs removes every bracketed group, nested ones included:
// freelist.(*List[[]go.shape.uint8]).Get becomes freelist.(*List).Get.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllowlist returns the names the allowlist lists, in file order.
// Blank lines and lines starting with # are skipped; every entry needs a
// reason and may appear once.
func readAllowlist(t *testing.T, file string) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	seen := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", file, i+1, sym)
		}
		if seen[sym] {
			t.Errorf("%s:%d: %s is listed twice", file, i+1, sym)
		}
		seen[sym] = true
		names = append(names, sym)
	}
	return names
}

// TestLinkerNames checks the scan's mapping from a declaration to the
// linker's name, and from a line of `go tool nm` output to a symbol.
func TestLinkerNames(t *testing.T) {
	for _, tc := range []struct {
		decl   string
		sym    string // "" for a declaration the scan skips
		nm     string // a line of nm output that links it, or ""
		linked bool
	}{
		{"func F() {}", "m/p.F", "  4f7c40 T m/p.F", true},
		{"func F() {}", "m/p.F", "  4f7c40 T m/p.F.func1", false},
		{"func F() {}", "m/p.F", "  575788 R m/p.F", false},
		{"func (t *T) M() {}", "m/p.(*T).M", "  4f7c40 T m/p.(*T).M", true},
		{"func (T) M() {}", "m/p.T.M", "  4f7c40 T m/p.T.M", true},
		{"func (t T) M() {}", "m/p.T.M", "  4f7c40 T m/p.(*T).M", true},
		{"func (t *T) M() {}", "m/p.(*T).M", "  4f7c40 T m/p.T.M", false},
		{"func (l *List[E]) Get() E { var e E; return e }", "m/p.(*List).Get", "  4f7c40 T m/p.(*List[go.shape.uint8]).Get", true},
		{"func (l *List[E]) Get() E { var e E; return e }", "m/p.(*List).Get", "  4f7c40 T m/p.(*List[[]go.shape.struct { a [2]int }]).Get", true},
		{"func (m Map[K, V]) Len() int { return 0 }", "m/p.Map.Len", "  4f7c40 t m/p.(*Map[go.shape.int,go.shape.string]).Len", true},
		{"func Max[E int | float64](a, b E) E { return a }", "m/p.Max", "  4f7c40 T m/p.Max[go.shape.int]", true},
		{"func init() {}", "", "", false},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "x.go", "package p\n"+tc.decl, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", tc.decl, err)
		}
		sym, wrapper := symbols("m/p", f.Decls[0].(*ast.FuncDecl))
		if sym != tc.sym {
			t.Errorf("%s: symbol %q, want %q", tc.decl, sym, tc.sym)
		}
		linked := map[string]bool{}
		if name, ok := textSymbol(tc.nm); ok {
			linked[name] = true
		}
		if got := (funcDecl{sym: sym, wrapper: wrapper}).linkedIn(linked); got != tc.linked {
			t.Errorf("%s with nm line %q: linked %v, want %v", tc.decl, tc.nm, got, tc.linked)
		}
	}
}

// TestUnreachedPackage checks the package half of the gate on a small
// tree: a package that declares no function, only a variable, and that no
// main imports is reported, while a test-helper package, a _test.go file
// and testdata are not scanned at all.
func TestUnreachedPackage(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"cmd/tool/main.go":            "package main\n\nimport _ \"durassd/internal/used\"\n\nfunc main() {}\n",
		"internal/used/used.go":       "package used\n\nfunc F() {}\n",
		"internal/vars/vars.go":       "package vars\n\nvar Names = []string{\"a\"}\n",
		"internal/vars/vars_test.go":  "package vars\n\nfunc helper() {}\n",
		"internal/fixturetest/f.go":   "package fixturetest\n\nfunc Fixture() {}\n",
		"internal/used/testdata/t.go": "package t\n\nfunc T() {}\n",
	} {
		file := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	decls, pkgs, mains := declaredFuncs(t, root)
	var syms []string
	for _, d := range decls {
		syms = append(syms, d.sym)
	}
	sort.Strings(syms)
	for _, c := range []struct{ what, got, want string }{
		{"functions", strings.Join(syms, " "), "durassd/cmd/tool.main durassd/internal/used.F"},
		{"packages", strings.Join(pkgs, " "), "durassd/cmd/tool durassd/internal/used durassd/internal/vars"},
		{"mains", strings.Join(mains, " "), "durassd/cmd/tool"},
		{"unreached", strings.Join(unreached(pkgs, map[string]bool{"durassd/cmd/tool": true, "durassd/internal/used": true}), " "), "durassd/internal/vars"},
	} {
		if c.got != c.want {
			t.Errorf("%s: %q, want %q", c.what, c.got, c.want)
		}
	}
}
