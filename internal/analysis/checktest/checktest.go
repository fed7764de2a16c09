// Package checktest is an analysistest-style golden harness for simlint
// analyzers. A test package lives under testdata/src/<importpath>/ and
// marks each expected diagnostic with a trailing comment on the offending
// line:
//
//	time.Sleep(d) // want `wall-clock time\.Sleep`
//
// The pattern is a regular expression matched against the diagnostic
// message (either `backquoted` or "quoted"). Lines without a want comment
// must produce no diagnostic and vice versa — both directions are test
// failures, so every analyzer demonstrably catches what it claims to and
// nothing more. //simlint:allow directives in testdata are processed
// exactly as in production (via the shared driver), which lets the
// directive paths — honored, unknown analyzer, missing reason — be tested
// as golden cases too.
package checktest

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"durassd/internal/analysis"
	"durassd/internal/analysis/driver"
)

// Run loads testdata/src/<pkgPath> (testdata is resolved relative to the
// calling test's working directory), applies the analyzers, and matches
// diagnostics against want comments.
func Run(t *testing.T, pkgPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	runPkgs(t, []string{pkgPath}, analyzers, false)
}

// RunFix is Run plus suggested-fix verification: after matching
// diagnostics, it applies every suggested fix in memory and compares each
// changed file against the sibling <name>.golden file.
func RunFix(t *testing.T, pkgPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	runPkgs(t, []string{pkgPath}, analyzers, true)
}

// RunDirs loads several testdata packages in the given order (dependencies
// first — later packages may import earlier ones by their pkgPath) and
// applies the analyzers to the whole set, threading exported facts along
// the chain. This is how the interprocedural analyzers' cross-package
// behavior is golden-tested: the want comments in a downstream package
// assert on findings that only exist if the upstream package's summary
// facts arrived.
func RunDirs(t *testing.T, pkgPaths []string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	runPkgs(t, pkgPaths, analyzers, false)
}

func runPkgs(t *testing.T, pkgPaths []string, analyzers []*analysis.Analyzer, fix bool) {
	t.Helper()
	loader := driver.NewLoader("")
	var pkgs []*driver.Package
	for _, pkgPath := range pkgPaths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
		pkg, err := loader.LoadDir(pkgPath, dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		for _, e := range pkg.TypeErrors {
			t.Errorf("testdata must type-check: %v", e)
		}
		pkgs = append(pkgs, pkg)
	}
	res, err := driver.Run(pkgs, analyzers, false)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}

	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	wants := parseWants(t, loader.Fset(), files)
	matched := make([]bool, len(wants))
	for _, f := range res.Findings {
		key := posKey{filepath.Base(f.Position.Filename), f.Position.Line}
		ok := false
		for i, w := range wants {
			if w.posKey == key && !matched[i] && w.re.MatchString(f.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", key.file, key.line, f.Analyzer, f.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}

	if fix {
		verifyFixes(t, loader.Fset(), res)
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	posKey
	re *regexp.Regexp
}

var wantRe = regexp.MustCompile("// want (`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// parseWants extracts want expectations from the package's comments.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var out []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pat := m[1]
					if strings.HasPrefix(pat, "`") {
						pat = strings.Trim(pat, "`")
					} else if s, err := strconv.Unquote(pat); err == nil {
						pat = s
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", pat, err)
					}
					p := fset.Position(c.Pos())
					out = append(out, want{posKey{filepath.Base(p.Filename), p.Line}, re})
				}
			}
		}
	}
	return out
}

// verifyFixes applies the suggested fixes in memory through the same step
// simlint -fix uses and diffs each touched file against <file>.golden.
func verifyFixes(t *testing.T, fset *token.FileSet, res *driver.Result) {
	t.Helper()
	files, err := driver.Fixed(fset, res.Findings)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		goldenFile := name + ".golden"
		golden, err := os.ReadFile(goldenFile)
		if err != nil {
			t.Fatalf("fix produced output but golden file is missing: %v", err)
		}
		if string(src) != string(golden) {
			t.Errorf("fixed %s does not match %s:\n--- got ---\n%s\n--- want ---\n%s",
				filepath.Base(name), filepath.Base(goldenFile), src, golden)
		}
	}
}

// Diagnostics is a convenience for tests that assert on raw findings.
func Diagnostics(t *testing.T, pkgPath string, analyzers ...*analysis.Analyzer) []driver.Finding {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
	loader := driver.NewLoader("")
	pkg, err := loader.LoadDir(pkgPath, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	res, err := driver.Run([]*driver.Package{pkg}, analyzers, false)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	return res.Findings
}
