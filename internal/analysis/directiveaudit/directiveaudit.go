// Package directiveaudit declares the analyzer that flags stale
// //simlint:allow directives — ones that no longer suppress any finding.
// Unlike the other analyzers it has no Run logic of its own: only the
// driver knows, after every other analyzer has swept a package, which
// directives were actually consulted, so the driver implements the check
// (see internal/analysis/driver.runPackage) and reports under this
// analyzer's name. -fix deletes the stale directive, whole line included
// when it stands alone. No directive can allow a directiveaudit finding:
// //simlint:allow directiveaudit is an unknown-analyzer finding.
package directiveaudit

import "durassd/internal/analysis"

// Analyzer flags //simlint:allow directives that suppress nothing.
var Analyzer = &analysis.Analyzer{
	Name: analysis.DirectiveAuditName,
	Doc:  "flag //simlint:allow directives that no longer suppress any finding",
	Run:  func(*analysis.Pass) error { return nil },
}
