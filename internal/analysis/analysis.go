// Package analysis is a self-contained reimplementation of the API surface
// of golang.org/x/tools/go/analysis that this repository's simlint suite
// needs. The module is intentionally dependency-free (the simulator builds
// from the standard library alone), so rather than importing x/tools we
// provide the same shape — Analyzer, Pass, Diagnostic, SuggestedFix — on
// top of go/ast and go/types, with a go-list-based loader in
// internal/analysis/driver and an analysistest-style golden harness in
// internal/analysis/checktest.
//
// The analyzers themselves live in sibling packages (nowalltime,
// seededrand, simproc, maporder, devcheck) and mechanically enforce the
// determinism and crash-safety invariants the simulation's guarantees rest
// on; see each package's doc comment for the invariant it protects.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one simlint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:allow directives. It must be a valid Go identifier.
	Name string
	// Doc is a one-paragraph description: the invariant the analyzer
	// protects and why violating it is a bug in this repository.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics via
	// pass.Report. The returned error aborts the whole simlint run and is
	// reserved for internal failures, not findings.
	Run func(pass *Pass) error
}

// PackageFacts is one package's exported facts for one analyzer: a map
// from object key (conventionally types.Func.FullName of the summarized
// function) to the summary value the analyzer exported, which only that
// analyzer interprets. Facts are how analyzers see across package
// boundaries: the driver analyzes packages in dependency order, so by the
// time a package runs, the facts of everything it imports, computed
// earlier in the same run, are available.
type PackageFacts map[string]any

// Pass presents one package to an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token positions for every file in Files.
	Fset *token.FileSet
	// Files are the parsed source files of the package, including
	// in-package _test.go files when the driver loads them.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checking results for Files.
	TypesInfo *types.Info

	report   func(Diagnostic)
	imported func(pkgPath string) PackageFacts
	exported PackageFacts
	allowed  func(analyzer string, pos token.Pos) bool
}

// Allowed reports whether a //simlint:allow directive for this pass's
// analyzer covers pos, and marks the directive used. Most analyzers never
// call it — the driver suppresses allowed diagnostics after the fact —
// but interprocedural analyzers consult it up front so that an allowed
// site is also dropped from exported summary facts, keeping one audited
// directive from echoing as findings at every transitive call site.
func (p *Pass) Allowed(pos token.Pos) bool {
	return p.allowed != nil && p.allowed(p.Analyzer.Name, pos)
}

// SetAllowSource wires the driver's allow lookup into the pass. The
// callback must mark matching directives as used.
func (p *Pass) SetAllowSource(allowed func(analyzer string, pos token.Pos) bool) {
	p.allowed = allowed
}

// ImportedFacts returns the facts this analyzer exported when it analyzed
// pkgPath (a dependency of the current package), or nil when the driver
// has none — either because the dependency exports no facts or because the
// pass runs outside a fact-threading driver.
func (p *Pass) ImportedFacts(pkgPath string) PackageFacts {
	if p.imported == nil {
		return nil
	}
	return p.imported(pkgPath)
}

// ExportFact records value as a fact for the current package under key,
// visible to later passes of the same analyzer over packages that import
// this one. Importers receive the value itself, shared rather than copied,
// so neither side may modify it afterwards.
func (p *Pass) ExportFact(key string, value any) {
	if p.exported == nil {
		p.exported = make(PackageFacts)
	}
	p.exported[key] = value
}

// ExportedFacts returns the facts recorded by ExportFact (nil when none).
func (p *Pass) ExportedFacts() PackageFacts { return p.exported }

// SetFactSource wires the driver's imported-fact lookup into the pass.
func (p *Pass) SetFactSource(imported func(pkgPath string) PackageFacts) {
	p.imported = imported
}

// Report emits a finding.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	p.report(d)
}

// Reportf emits a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the analyzer that produced the finding. Pass.Report
	// fills it in; drivers use it to match //simlint:allow directives.
	Analyzer string
	Pos      token.Pos
	Message  string
	// SuggestedFixes, if non-empty, are mechanical rewrites that resolve
	// the finding; `simlint -fix` applies the first one.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one self-contained rewrite.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces the source in [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// NewPass assembles a Pass. The report callback receives every diagnostic
// the analyzer emits, already stamped with the analyzer name.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		report:    report,
	}
}
