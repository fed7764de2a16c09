package driver_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"durassd/internal/analysis"
	"durassd/internal/analysis/all"
	"durassd/internal/analysis/checktest"
	"durassd/internal/analysis/driver"
	"durassd/internal/analysis/hotalloc"
)

// TestAllowHonored: a well-formed //simlint:allow directive (trailing or
// own-line) suppresses the named analyzer's diagnostics on the guarded
// line. The testdata package contains only allowed violations, so the full
// suite must report nothing.
func TestAllowHonored(t *testing.T) {
	checktest.Run(t, "allowdir", all.Analyzers...)
}

// TestAllowRejected: malformed directives are findings themselves and
// suppress nothing — the seededrand diagnostics they tried to silence
// must survive alongside them.
func TestAllowRejected(t *testing.T) {
	findings := checktest.Diagnostics(t, "badallow", all.Analyzers...)

	counts := map[string]int{}
	var directiveMsgs []string
	for _, f := range findings {
		counts[f.Analyzer]++
		if f.Analyzer == "simlint" {
			directiveMsgs = append(directiveMsgs, f.Message)
		}
	}
	// Three malformed directives, three surviving seededrand findings.
	if counts["simlint"] != 3 {
		t.Errorf("want 3 directive findings, got %d: %v", counts["simlint"], findings)
	}
	if counts["seededrand"] != 3 {
		t.Errorf("want 3 surviving seededrand findings, got %d: %v", counts["seededrand"], findings)
	}
	wantSubstrings := []string{
		"unknown analyzer nosuchanalyzer",
		"missing reason in //simlint:allow seededrand",
		"malformed directive",
	}
	for _, sub := range wantSubstrings {
		found := false
		for _, m := range directiveMsgs {
			if strings.Contains(m, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive finding contains %q; got %v", sub, directiveMsgs)
		}
	}
}

// TestLoadRealPackage drives the go-list loader against a real repository
// package (with its test files) and runs the full suite over it: the
// engine package must come back type-checked and clean.
func TestLoadRealPackage(t *testing.T) {
	loader := driver.NewLoader("")
	pkgs, err := loader.Load("durassd/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	sawTestFile := false
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: type errors: %v", p.ImportPath, p.TypeErrors)
		}
		for _, f := range p.Files {
			if strings.HasSuffix(loader.Fset().Position(f.Pos()).Filename, "_test.go") {
				sawTestFile = true
			}
		}
	}
	if !sawTestFile {
		t.Error("loader did not include _test.go files; simlint would miss test-side determinism violations")
	}
	res, err := driver.Run(pkgs, all.Analyzers, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("unexpected finding in clean package: %s", f)
	}
}

// TestFactsFollowEveryImportEdge analyzes a scratch module in which one
// allocating function, z.Scratch, is reached from //simlint:hotpath
// functions across each kind of import edge the loader records: a plain
// import (c), an in-package test file's import (a), and an external test
// package's import (b_test, whose subject b also sits on the chain). Each
// hot root must be attributed to z.Scratch, which is only possible if z's
// summary facts were computed before every package that imports it.
func TestFactsFollowEveryImportEdge(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module edgetest\n\ngo 1.23\n")
	write("z/z.go", `package z

// Scratch builds a fresh buffer on every call.
func Scratch() []byte {
	return make([]byte, 64)
}
`)
	write("a/a.go", "package a\n")
	write("a/a_test.go", `package a

import "edgetest/z"

//simlint:hotpath
func hotA() int {
	return len(z.Scratch())
}
`)
	write("b/b.go", `package b

import "edgetest/z"

// Fill is hot only through its callers.
func Fill() int {
	return len(z.Scratch())
}
`)
	write("b/b_test.go", `package b_test

import (
	"edgetest/b"
	"edgetest/z"
)

//simlint:hotpath
func hotB() int {
	return len(z.Scratch()) + b.Fill()
}
`)
	write("c/c.go", `package c

import "edgetest/z"

//simlint:hotpath
func Hot() int {
	return len(z.Scratch())
}
`)

	pkgs, err := driver.NewLoader(dir).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Run(pkgs, []*analysis.Analyzer{hotalloc.Analyzer}, false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range res.Findings {
		rel, err := filepath.Rel(dir, f.Position.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d:%d: %s: %s", filepath.ToSlash(rel), f.Position.Line, f.Position.Column, f.Analyzer, f.Message))
	}
	want := []string{
		"a/a_test.go:7:22: hotalloc: call on hot path reaches heap allocation: make allocates at z.go:5:9 (via edgetest/a.hotA → edgetest/z.Scratch)",
		"b/b_test.go:10:22: hotalloc: call on hot path reaches heap allocation: make allocates at z.go:5:9 (via edgetest/b_test.hotB → edgetest/z.Scratch)",
		"b/b_test.go:10:34: hotalloc: call on hot path reaches heap allocation: make allocates at z.go:5:9 (via edgetest/b_test.hotB → edgetest/b.Fill → edgetest/z.Scratch)",
		"c/c.go:7:22: hotalloc: call on hot path reaches heap allocation: make allocates at z.go:5:9 (via edgetest/c.Hot → edgetest/z.Scratch)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
