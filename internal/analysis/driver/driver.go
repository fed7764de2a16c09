// Package driver loads packages and applies simlint analyzers to them.
//
// It plays the role golang.org/x/tools/go/analysis's multichecker driver
// plays for standard analyzers: list packages with the go command, type
// check them from source (the standard library from compiled export
// data), run every analyzer in dependency order so per-function summary
// facts flow across package boundaries, honor //simlint:allow
// directives, audit stale ones, and optionally apply suggested fixes. A run is two calls: Loader.Load, which
// returns packages in dependency order, then Run.
package driver

import (
	"fmt"
	"go/token"
	"os"
	"sort"

	"durassd/internal/analysis"
	"durassd/internal/analysis/all"
)

// Finding is one reportable diagnostic with its resolved position.
type Finding struct {
	analysis.Diagnostic
	Position token.Position
	Package  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// Result is the outcome of one Run.
type Result struct {
	Findings []Finding
	// Fixed counts text edits applied (only when fixing was requested).
	Fixed int
}

// Run applies analyzers to pkgs in the given order, threading exported
// facts from earlier packages to later ones: callers pass dependencies
// first, as Loader.Load returns them, and every package comes from one
// Loader. A Dep package is analyzed for its facts, and none of its
// findings is reported or fixed. Diagnostics on lines carrying a well-formed //simlint:allow
// directive for the same analyzer are suppressed; malformed directives are
// themselves findings; when the directiveaudit analyzer is in the set,
// well-formed directives that suppressed nothing become findings with a
// deletion fix. When fix is true, the first suggested fix of every
// surviving diagnostic is applied to the source files on disk (see Fixed)
// and the fixed diagnostics are dropped from the result.
func Run(pkgs []*Package, analyzers []*analysis.Analyzer, fix bool) (*Result, error) {
	res := &Result{}
	facts := make(map[string]map[string]analysis.PackageFacts) // package path -> analyzer -> facts
	var fixable []Finding
	for _, pkg := range pkgs {
		findings, err := runPackage(pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		if pkg.Dep {
			continue // analyzed for its facts only
		}
		for _, f := range findings {
			if fix && len(f.SuggestedFixes) > 0 {
				fixable = append(fixable, f)
				res.Fixed += len(f.SuggestedFixes[0].TextEdits)
				continue
			}
			res.Findings = append(res.Findings, f)
		}
	}
	if len(fixable) > 0 {
		files, err := Fixed(pkgs[0].Fset, fixable)
		if err != nil {
			return nil, err
		}
		for name, src := range files {
			if err := os.WriteFile(name, src, 0o644); err != nil {
				return nil, err
			}
		}
	}
	sortFindings(res.Findings)
	return res, nil
}

// known names every registered analyzer, whether or not a run selects it,
// so a directive for an analyzer left out of the run is neither unknown
// nor stale. No directive may name directiveaudit: the audit has no
// finding an allow could suppress but its own.
var known = func() map[string]bool {
	m := make(map[string]bool, len(all.Analyzers))
	for _, a := range all.Analyzers {
		m[a.Name] = a.Name != analysis.DirectiveAuditName
	}
	return m
}()

// runPackage runs the analyzer set over one loaded package: directive
// handling, fact threading, and the stale-allow audit. It returns the
// surviving findings and records the facts each analyzer exported in
// facts.
func runPackage(pkg *Package, analyzers []*analysis.Analyzer, facts map[string]map[string]analysis.PackageFacts) ([]Finding, error) {
	var findings []Finding
	allows, bad := analysis.NewAllowSet(analysis.ParseAllows(pkg.Fset, pkg.Files), known)
	for _, d := range bad {
		findings = append(findings, Finding{Diagnostic: d, Position: pkg.Fset.Position(d.Pos), Package: pkg.ImportPath})
	}
	for _, err := range pkg.TypeErrors {
		findings = append(findings, Finding{
			Diagnostic: analysis.Diagnostic{Analyzer: "typecheck", Message: err.Error()},
			Package:    pkg.ImportPath,
		})
	}

	keep := func(d analysis.Diagnostic) {
		findings = append(findings, Finding{Diagnostic: d, Position: pkg.Fset.Position(d.Pos), Package: pkg.ImportPath})
	}

	exported := make(map[string]analysis.PackageFacts)
	facts[pkg.ImportPath] = exported
	ran := make(map[string]bool, len(analyzers))
	audit := false
	for _, a := range analyzers {
		if a.Name == analysis.DirectiveAuditName {
			// The audit needs the other analyzers' allow usage; it runs
			// after them, below.
			audit = true
			continue
		}
		ran[a.Name] = true
		var diags []analysis.Diagnostic
		pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, func(d analysis.Diagnostic) {
			diags = append(diags, d)
		})
		a := a
		pass.SetFactSource(func(dep string) analysis.PackageFacts { return facts[dep][a.Name] })
		pass.SetAllowSource(func(name string, pos token.Pos) bool { return allows.Allows(pkg.Fset, name, pos) })
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
		exported[a.Name] = pass.ExportedFacts()
		for _, d := range diags {
			if allows.Allows(pkg.Fset, d.Analyzer, d.Pos) {
				continue
			}
			keep(d)
		}
	}

	if audit {
		// Directives for analyzers that ran but suppressed nothing.
		for _, a := range allows.Unused(func(name string) bool { return ran[name] }) {
			keep(staleAllowDiagnostic(a))
		}
	}
	return findings, nil
}

// staleAllowDiagnostic builds the directiveaudit finding for one unused
// directive, with a fix that deletes it cleanly.
func staleAllowDiagnostic(a analysis.Allow) analysis.Diagnostic {
	return analysis.Diagnostic{
		Analyzer: analysis.DirectiveAuditName,
		Pos:      a.Pos,
		Message:  fmt.Sprintf("stale //simlint:allow %s directive suppresses no finding; delete it", a.Analyzer),
		SuggestedFixes: []analysis.SuggestedFix{{
			Message:   "delete stale directive",
			TextEdits: []analysis.TextEdit{{Pos: a.DelPos, End: a.DelEnd}},
		}},
	}
}

// sortFindings orders findings by file, line, column, analyzer.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
