package directiveaudit_test

import (
	"testing"

	"durassd/internal/analysis/checktest"
	"durassd/internal/analysis/directiveaudit"
	"durassd/internal/analysis/nowalltime"
)

// TestDirectiveAudit covers the audit's full round trip with -fix: a used
// allow survives untouched, stale trailing and own-line allows are
// findings whose fixes splice them out (compared against a.go.golden),
// and an allow naming directiveaudit is an unknown-analyzer finding.
func TestDirectiveAudit(t *testing.T) {
	checktest.RunFix(t, "directiveaudit", nowalltime.Analyzer, directiveaudit.Analyzer)
}
