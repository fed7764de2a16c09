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
	"durassd/internal/analysis/directiveaudit"
	"durassd/internal/analysis/driver"
	"durassd/internal/analysis/hotalloc"
)

// TestAllowHonored: a well-formed //simlint:allow directive (trailing or
// own-line) suppresses the named analyzer's diagnostics on the guarded
// line. The testdata package contains only allowed violations, so the full
// suite must report nothing. Nor must a run of some of the analyzers, as
// simlint -only makes: the names a directive may use come from the
// registry, not from the run, so a directive for an analyzer left out is
// neither unknown nor stale.
func TestAllowHonored(t *testing.T) {
	checktest.Run(t, "allowdir", all.Analyzers...)
	checktest.Run(t, "allowdir", hotalloc.Analyzer, directiveaudit.Analyzer)
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

// TestLoadRealPackage drives the go-list loader against real repository
// packages (with their test files) and runs the full suite over them:
// each set must come back type-checked and clean. Partial patterns are
// the point: every module package a pattern reaches is checked from
// source, so a type imported along two paths exists once.
func TestLoadRealPackage(t *testing.T) {
	for _, patterns := range [][]string{
		{"durassd/internal/sim"},
		{"durassd/internal/dbsim/pagedb"},
		{"durassd/internal/sim", "durassd/internal/ftl"},
	} {
		loader := driver.NewLoader("")
		pkgs, err := loader.Load(patterns...)
		if err != nil {
			t.Fatal(err)
		}
		sawTestFile := false
		for _, p := range pkgs {
			for _, e := range p.TypeErrors {
				t.Errorf("%v: %s: type error: %v", patterns, p.ImportPath, e)
			}
			for _, f := range p.Files {
				if strings.HasSuffix(loader.Fset().Position(f.Pos()).Filename, "_test.go") {
					sawTestFile = true
				}
			}
		}
		if !sawTestFile {
			t.Errorf("%v: loader did not include _test.go files; simlint would miss test-side determinism violations", patterns)
		}
		res, err := driver.Run(pkgs, all.Analyzers, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Findings {
			t.Errorf("%v: unexpected finding in clean package: %s", patterns, f)
		}
	}
}

// TestFactsFollowEveryImportEdge analyzes a scratch module in which one
// allocating function, z.Scratch, is reached from //simlint:hotpath
// functions across each kind of import edge the loader records: a plain
// import (c), an in-package test file's import (a), and an external test
// package's import (b_test, whose subject b also sits on the chain). Each
// hot root must be attributed to z.Scratch, which is only possible if z's
// summary facts were computed before every package that imports it —
// also when the pattern matches c alone and z is only its dependency. A
// second pair, x and y, has x's external test import y while y imports
// x: linting x alone must check y against the same x, not report a type
// mismatch.
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

	write("x/x.go", `package x

// T is the type both of x's importers name.
type T struct{ N int }
`)
	write("y/y.go", `package y

import "edgetest/x"

// Make builds an x.T.
func Make() x.T { return x.T{N: 1} }
`)
	write("x/x_test.go", `package x_test

import (
	"edgetest/x"
	"edgetest/y"
)

var _ x.T = y.Make()
`)

	lint := func(patterns ...string) []string {
		t.Helper()
		pkgs, err := driver.NewLoader(dir).Load(patterns...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := driver.Run(pkgs, []*analysis.Analyzer{hotalloc.Analyzer}, false)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range res.Findings {
			if f.Position.Filename == "" {
				got = append(got, f.String())
				continue
			}
			rel, err := filepath.Rel(dir, f.Position.Filename)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s:%d:%d: %s: %s", filepath.ToSlash(rel), f.Position.Line, f.Position.Column, f.Analyzer, f.Message))
		}
		return got
	}
	hotC := "c/c.go:7:22: hotalloc: call on hot path reaches heap allocation: make allocates at z.go:5:9 (via edgetest/c.Hot → edgetest/z.Scratch)"
	for _, tc := range []struct {
		pattern string
		want    []string
	}{
		{"./...", []string{
			"a/a_test.go:7:22: hotalloc: call on hot path reaches heap allocation: make allocates at z.go:5:9 (via edgetest/a.hotA → edgetest/z.Scratch)",
			"b/b_test.go:10:22: hotalloc: call on hot path reaches heap allocation: make allocates at z.go:5:9 (via edgetest/b_test.hotB → edgetest/z.Scratch)",
			"b/b_test.go:10:34: hotalloc: call on hot path reaches heap allocation: make allocates at z.go:5:9 (via edgetest/b_test.hotB → edgetest/b.Fill → edgetest/z.Scratch)",
			hotC,
		}},
		{"./c", []string{hotC}},
		{"./x", nil},
	} {
		if got := lint(tc.pattern); strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s findings:\n%s\nwant:\n%s", tc.pattern, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
