package durassd_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// module is the import path of this repository's module.
const module = "durassd"

const (
	// suiteFile holds the tool runs, one shell command a line, run from
	// the module root with the built tools first on PATH and $OUT set to
	// a scratch directory.
	suiteFile = "testdata/toolsuite.txt"
	// unrunFile lists the code the suite leaves unrun, one entry a line:
	// a key, " // ", then why it stays. A key marked "~ " runs or not with
	// the host's timing, so it is never stale.
	unrunFile = "testdata/unrun.txt"
)

// simPackages are the simulator packages, under internal/, that the gate
// checks block by block; the rest of the module it checks function by
// function. An entry ending in "/" covers the packages below it.
var simPackages = []string{
	"sim", "nand", "ftl", "core", "devfront", "ssd", "hdd", "vol", "host",
	"dbsim/", "innodb", "pgsql", "couch", "serve", "workload/", "crashpoint",
}

// TestEveryStatementRuns builds every cmd/* and examples/* main with
// coverage on, runs the tool suite and fails on code no run executes
// that the list does not name: in a simulator package any block, and
// elsewhere any function none of whose statements run. Two kinds of block
// are safety code and need no entry: one that ends in panic(…), and a
// return of a non-nil last result from a function whose last result is an
// error. The gate also fails on a suite command that exits non-zero, on a
// module package no main imports (test-helper packages, named …test,
// excepted), and on a list entry that matches nothing.
func TestEveryStatementRuns(t *testing.T) {
	bin, cover, out := t.TempDir(), t.TempDir(), t.TempDir()
	build := exec.Command("go", "build", "-cover", "-coverpkg="+module+"/...", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, b)
	}
	// Two procs on any host, so that the cluster's lanes run side by side.
	env := append(os.Environ(), "GOMAXPROCS=2",
		"PATH="+bin+string(filepath.ListSeparator)+os.Getenv("PATH"),
		"GOCOVERDIR="+cover, "OUT="+out)
	for _, err := range runSuite(readLines(t, suiteFile), env) {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	ran := map[string]bool{}
	for _, p := range strings.Fields(covdata(t, "pkglist", "-i="+cover)) {
		ran[p] = true
	}
	for _, p := range modulePackages(t) {
		if !ran[p] {
			t.Errorf("package %s is imported by no cmd/* or examples/* main; delete it, or move what only tests use into _test.go files", p)
		}
	}

	profile := filepath.Join(out, "cover.txt")
	covdata(t, "textfmt", "-i="+cover, "-o="+profile)
	data, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	unrun, err := scan(".", blocks)
	if err != nil {
		t.Fatal(err)
	}

	listed := map[string]bool{}
	for _, line := range readLines(t, unrunFile) {
		key, reason, _ := strings.Cut(line, " // ")
		key, timed := strings.CutPrefix(key, "~ ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %q has no reason", unrunFile, key)
		}
		if listed[key] {
			t.Errorf("%s: %q is listed twice", unrunFile, key)
		}
		listed[key] = true
		if unrun[key] == nil && !timed {
			t.Errorf("%s: %q matches no unrun code; remove it", unrunFile, key)
		}
	}
	var missing []string
	for key, at := range unrun {
		if !listed[key] {
			missing = append(missing, at[0]+": "+key)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d places run in no %s command; reach them from a tool, delete them, or list them with a reason in %s:\n\t%s",
			len(missing), suiteFile, unrunFile, strings.Join(missing, "\n\t"))
	}
}

// readLines returns file's lines, trimmed, without blank lines and lines
// starting with #.
func readLines(t *testing.T, file string) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}

// runSuite runs each command with sh -c, two at a time, and returns an
// error for each one that exits non-zero.
func runSuite(cmds []string, env []string) []error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
		slot = make(chan struct{}, 2)
	)
	for _, c := range cmds {
		wg.Add(1)
		slot <- struct{}{}
		//simlint:allow simproc runs tool processes side by side; nothing simulated crosses goroutines
		go func() {
			defer func() { <-slot; wg.Done() }()
			cmd := exec.Command("sh", "-c", c)
			cmd.Env = env
			out, err := cmd.CombinedOutput()
			if err == nil {
				return
			}
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			lines = lines[max(0, len(lines)-20):]
			mu.Lock()
			errs = append(errs, fmt.Errorf("%s: %v\n\t%s", c, err, strings.Join(lines, "\n\t")))
			mu.Unlock()
		}()
	}
	wg.Wait()
	return errs
}

func covdata(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"tool", "covdata"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool covdata %s: %v\n%s", args[0], err, out)
	}
	return string(out)
}

// modulePackages returns the import paths of the module's packages that
// have non-test Go files, other than the test-helper packages.
func modulePackages(t *testing.T) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Name}} {{len .GoFiles}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[2] != "0" && !strings.HasSuffix(f[1], "test") {
			pkgs = append(pkgs, f[0])
		}
	}
	return pkgs
}

// block is one line of a text coverage profile: a run of statements in
// file, from line.col to line.col, and whether any run executed it.
type block struct {
	file                     string // import path and file name
	line0, col0, line1, col1 int
	stmts                    int
	ran                      bool
}

// parseProfile parses `go tool covdata textfmt` output.
func parseProfile(data []byte) ([]block, error) {
	var blocks []block
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		// durassd/internal/ftl/ftl.go:408.70,410.2 2 0
		colon := strings.LastIndex(line, ":")
		b, count := block{file: line[:max(colon, 0)]}, 0
		if _, err := fmt.Sscanf(line[colon+1:], "%d.%d,%d.%d %d %d", &b.line0, &b.col0, &b.line1, &b.col1, &b.stmts, &count); err != nil || colon < 0 {
			return nil, fmt.Errorf("bad profile line %q", line)
		}
		b.ran = count > 0
		blocks = append(blocks, b)
	}
	return blocks, sc.Err()
}

// isSimPackage reports whether the package at import path pkg is checked
// block by block.
func isSimPackage(pkg string) bool {
	rel, ok := strings.CutPrefix(pkg, module+"/internal/")
	if !ok {
		return false
	}
	for _, p := range simPackages {
		if rel == p || strings.HasSuffix(p, "/") && strings.HasPrefix(rel, p) {
			return true
		}
	}
	return false
}

// scan maps the profile's unexecuted blocks onto the source under root,
// the module's directory, and returns each place that needs a list entry,
// with the positions it covers. A function none of whose blocks ran is one
// place, pkg.Func; in a simulator package each other unexecuted block that
// is not safety code is the place pkg.Func: header, where header is that
// of the innermost if, else, case, for or func literal around it.
func scan(root string, blocks []block) (map[string][]string, error) {
	type fn struct {
		key    string
		ran    bool
		blocks []string // keys of its unexecuted, non-exempt blocks
		at     []string
	}
	fset := token.NewFileSet()
	files := map[string]*sourceFile{}
	fns := map[ast.Node]*fn{}
	var order []*fn
	for _, b := range blocks {
		if b.stmts == 0 {
			continue
		}
		sf := files[b.file]
		if sf == nil {
			rel := strings.TrimPrefix(strings.TrimPrefix(b.file, module), "/")
			f, err := parser.ParseFile(fset, filepath.Join(root, filepath.FromSlash(rel)), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			sf = &sourceFile{fset: fset, file: f, tf: fset.File(f.Pos())}
			files[b.file] = sf
		}
		start, end := sf.pos(b.line0, b.col0), sf.pos(b.line1, b.col1)
		decl, name := sf.funcAt(start)
		if decl == nil {
			return nil, fmt.Errorf("%s:%d: a block outside any function", b.file, b.line0)
		}
		f := fns[decl]
		if f == nil {
			pkg := filepath.ToSlash(filepath.Dir(b.file))
			f = &fn{key: shortPkg(pkg) + "." + name}
			fns[decl] = f
			order = append(order, f)
		}
		if b.ran {
			f.ran = true
			continue
		}
		if sf.exempt(start, end) {
			continue
		}
		f.at = append(f.at, fmt.Sprintf("%s:%d", b.file, b.line0))
		if isSimPackage(filepath.ToSlash(filepath.Dir(b.file))) {
			f.blocks = append(f.blocks, f.key+": "+sf.header(start))
		}
	}
	unrun := map[string][]string{}
	for _, f := range order {
		switch {
		case len(f.at) == 0:
		case !f.ran:
			unrun[f.key] = f.at
		default:
			for i, key := range f.blocks {
				unrun[key] = append(unrun[key], f.at[i])
			}
		}
	}
	return unrun, nil
}

// shortPkg names a package in a list entry: its import path without the
// module and internal/ prefixes, or the module's name for the root.
func shortPkg(pkg string) string {
	if pkg == module {
		return module
	}
	return strings.TrimPrefix(strings.TrimPrefix(pkg, module+"/"), "internal/")
}

// funcName returns F, T.M or (*T).M, with type parameters dropped.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return d.Name.Name
	}
	typ := d.Recv.List[0].Type
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
		return "(*" + recv + ")." + d.Name.Name
	}
	return recv + "." + d.Name.Name
}

// sourceFile is one parsed file of the profile.
type sourceFile struct {
	fset *token.FileSet
	file *ast.File
	tf   *token.File
}

// pos converts a profile's line.col, counted in bytes from 1, to a Pos.
func (sf *sourceFile) pos(line, col int) token.Pos {
	return sf.tf.LineStart(line) + token.Pos(col-1)
}

// funcAt returns the top-level declaration that holds p and its name: a
// function's, or for a func literal in a package-level variable's value,
// the variable's.
func (sf *sourceFile) funcAt(p token.Pos) (ast.Node, string) {
	for _, d := range sf.file.Decls {
		if d.Pos() > p || p >= d.End() {
			continue
		}
		switch d := d.(type) {
		case *ast.FuncDecl:
			return d, funcName(d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && vs.Pos() <= p && p < vs.End() {
					return vs, vs.Names[0].Name
				}
			}
		}
	}
	return nil, ""
}

// exempt reports whether the block from start to end is safety code: its
// last statement is a call of panic, or a return whose last result is not
// nil in a function (or func literal) whose last result type is error.
func (sf *sourceFile) exempt(start, end token.Pos) bool {
	var last ast.Stmt
	var fnType *ast.FuncType
	ast.Inspect(sf.file, func(n ast.Node) bool {
		if n == nil || n.End() <= start || n.Pos() >= end {
			return false
		}
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			fnType = n.Type
		case *ast.FuncLit:
			if within(start, n.Body) {
				fnType = n.Type
			}
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		}
		for _, s := range list {
			if start <= s.Pos() && s.Pos() < end {
				last = s
			}
		}
		return true
	})
	switch s := last.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.ReturnStmt:
		if len(s.Results) == 0 || fnType == nil || fnType.Results == nil {
			return false
		}
		if id, ok := s.Results[len(s.Results)-1].(*ast.Ident); ok && id.Name == "nil" {
			return false
		}
		res := fnType.Results.List
		id, ok := res[len(res)-1].Type.(*ast.Ident)
		return ok && id.Name == "error"
	}
	return false
}

// header returns the gofmt'd header of the innermost if, else, case, for,
// range or func literal whose body holds p. For a block directly in a
// function's body, after an early return, it is "after " and the header
// of the statement before it.
func (sf *sourceFile) header(p token.Pos) string {
	var h string
	var prev ast.Stmt
	ast.Inspect(sf.file, func(n ast.Node) bool {
		if n == nil || p < n.Pos() || p >= n.End() {
			return false
		}
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.IfStmt:
			switch {
			case within(p, n.Body):
				h = sf.ifHeader(n)
			case n.Else != nil && n.Body.End() <= p && p < n.Else.End():
				// Coverage starts an else block where the if's body ends.
				h = "else of " + sf.ifHeader(n)
			}
		case *ast.CaseClause:
			h, list = "default", n.Body
			if n.List != nil {
				h = "case " + sf.exprs(n.List)
			}
		case *ast.CommClause:
			h, list = "default", n.Body
			if n.Comm != nil {
				h = "case " + sf.print(n.Comm)
			}
		case *ast.ForStmt:
			if within(p, n.Body) {
				h = sf.forHeader(n)
			}
		case *ast.RangeStmt:
			if within(p, n.Body) {
				h = "for " + sf.rangeClause(n)
			}
		case *ast.FuncLit:
			if within(p, n.Body) {
				h = sf.print(n.Type)
			}
		case *ast.BlockStmt:
			list = n.List
		}
		if list != nil {
			prev = nil
			for _, s := range list {
				if s.End() <= p {
					prev = s
				}
			}
		}
		return true
	})
	if h == "" && prev != nil {
		return "after " + sf.stmtHeader(prev)
	}
	return h
}

// within reports whether p lies in n, a block, from its opening brace on.
func within(p token.Pos, n ast.Node) bool { return n.Pos() <= p && p < n.End() }

// stmtHeader returns s without its body.
func (sf *sourceFile) stmtHeader(s ast.Stmt) string {
	switch s := s.(type) {
	case *ast.IfStmt:
		return sf.ifHeader(s)
	case *ast.ForStmt:
		return sf.forHeader(s)
	case *ast.RangeStmt:
		return "for " + sf.rangeClause(s)
	case *ast.SwitchStmt:
		h := "switch"
		if s.Init != nil {
			h += " " + sf.print(s.Init) + ";"
		}
		if s.Tag != nil {
			h += " " + sf.print(s.Tag)
		}
		return h
	case *ast.TypeSwitchStmt:
		return "switch " + sf.print(s.Assign)
	case *ast.SelectStmt:
		return "select"
	}
	return sf.print(s)
}

func (sf *sourceFile) ifHeader(s *ast.IfStmt) string {
	h := "if "
	if s.Init != nil {
		h += sf.print(s.Init) + "; "
	}
	return h + sf.print(s.Cond)
}

func (sf *sourceFile) forHeader(s *ast.ForStmt) string {
	if s.Init == nil && s.Post == nil {
		if s.Cond == nil {
			return "for"
		}
		return "for " + sf.print(s.Cond)
	}
	var parts [3]string
	for i, n := range []ast.Node{s.Init, s.Cond, s.Post} {
		if n != nil {
			parts[i] = sf.print(n)
		}
	}
	return "for " + strings.TrimSpace(strings.Join(parts[:], "; "))
}

func (sf *sourceFile) rangeClause(s *ast.RangeStmt) string {
	h := ""
	if s.Key != nil {
		h = sf.print(s.Key)
		if s.Value != nil {
			h += ", " + sf.print(s.Value)
		}
		h += " " + s.Tok.String() + " "
	}
	return h + "range " + sf.print(s.X)
}

func (sf *sourceFile) exprs(list []ast.Expr) string {
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = sf.print(e)
	}
	return strings.Join(parts, ", ")
}

// print returns n as gofmt prints it, on one line.
func (sf *sourceFile) print(n ast.Node) string {
	var b strings.Builder
	if err := printer.Fprint(&b, sf.fset, n); err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// TestExemptBlocks checks the rule that spares safety code an entry, on
// the body of the first if in f.
func TestExemptBlocks(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		exempt    bool
	}{
		{"panic", `func f(x bool) { if x { panic("bad") } }`, true},
		{"error return", `func f(x bool) error { if x { return errors.New("bad") }; return nil }`, true},
		{"wrapped error return", `func f(x bool) (int, error) { if x { return 0, fmt.Errorf("bad: %w", err) }; return 1, nil }`, true},
		{"return nil, nil", `func f(x bool) (*T, error) { if x { return nil, nil }; return &T{}, nil }`, false},
		{"return of a non-error", `func f(x bool) (error, int) { if x { return err, 1 }; return nil, 0 }`, false},
		{"error return in a func literal without one", `func f() error { g(func(x bool) { if x { log(errors.New("bad")); return } }); return nil }`, false},
		{"plain branch", `func f(x bool) { if x { x = false } }`, false},
	} {
		sf, fd := parseSnippet(t, tc.src)
		body := firstIf(fd).Body
		if got := sf.exempt(body.Lbrace, body.Rbrace+1); got != tc.exempt {
			t.Errorf("%s: exempt = %v, want %v", tc.name, got, tc.exempt)
		}
	}
}

// TestEntryKey checks the keys scan gives unrun code: pkg.Func for a
// function none of whose statements run, pkg.Func: header for an unrun
// block of a function that runs in a simulator package, and nothing for
// such a block elsewhere.
func TestEntryKey(t *testing.T) {
	root := t.TempDir()
	src := `package p

type T struct{ X int }

func Unrun(cfg T) int { return cfg.X }

func (t *T) Partly(cfg T) int {
	if cfg.X <= 0 {
		cfg.X = 4
	}
	for i := range t.X {
		if i > cfg.X {
			return i
		}
	}
	return 0
}
`
	for _, dir := range []string{"internal/ftl", "cmd/tool"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, dir, "p.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One block per function body and one per if body; a body runs unless
	// it is Unrun's or an if's.
	var blocks []block
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		ran := false
		switch n := n.(type) {
		case *ast.FuncDecl:
			body, ran = n.Body, n.Name.Name != "Unrun"
		case *ast.IfStmt:
			body = n.Body
		default:
			return true
		}
		p0, p1 := fset.Position(body.Lbrace), fset.Position(body.Rbrace+1)
		for _, dir := range []string{"internal/ftl", "cmd/tool"} {
			blocks = append(blocks, block{module + "/" + dir + "/p.go", p0.Line, p0.Column, p1.Line, p1.Column, 1, ran})
		}
		return true
	})
	unrun, err := scan(root, blocks)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range unrun {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"cmd/tool.Unrun",
		"ftl.(*T).Partly: if cfg.X <= 0",
		"ftl.(*T).Partly: if i > cfg.X",
		"ftl.Unrun",
	}
	if strings.Join(keys, "\n") != strings.Join(want, "\n") {
		t.Errorf("keys:\n\t%s\nwant:\n\t%s", strings.Join(keys, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// parseSnippet parses src as the only declaration of a file and returns
// the file and its function.
func parseSnippet(t *testing.T, src string) (*sourceFile, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return &sourceFile{fset: fset, file: f, tf: fset.File(f.Pos())}, f.Decls[0].(*ast.FuncDecl)
}

// firstIf returns the first if statement in n.
func firstIf(n ast.Node) *ast.IfStmt {
	var found *ast.IfStmt
	ast.Inspect(n, func(n ast.Node) bool {
		if s, ok := n.(*ast.IfStmt); ok && found == nil {
			found = s
		}
		return found == nil
	})
	return found
}
