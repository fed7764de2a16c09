package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"durassd/internal/analysis"
)

const directiveSrc = `package p

import "time"

func trailing(d time.Duration) {
	time.Sleep(d) //simlint:allow nowalltime reason one
}

func ownLine(d time.Duration) {
	//simlint:allow nowalltime reason two
	time.Sleep(d)
}

func bad() {
	_ = 1 //simlint:allow
	_ = 2 //simlint:allow nosuch reason
	_ = 3 //simlint:allow nowalltime
}

//simlint:hotpath
func hot() {}

func cold() {
	//simlint:hotpath
	_ = 4
}
`

// parseOnDisk writes src to a real file before parsing: the directive
// parser re-reads source bytes to classify own-line vs trailing comments
// and to compute deletion ranges.
func parseOnDisk(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.go")
	if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestParseAllowsAndAllowSet(t *testing.T) {
	fset, f := parseOnDisk(t, directiveSrc)
	allows := analysis.ParseAllows(fset, []*ast.File{f})
	if len(allows) != 5 {
		t.Fatalf("parsed %d directives, want 5: %+v", len(allows), allows)
	}
	if allows[0].OwnLine || allows[0].Analyzer != "nowalltime" || allows[0].Reason != "reason one" {
		t.Errorf("trailing directive parsed wrong: %+v", allows[0])
	}
	if !allows[1].OwnLine {
		t.Errorf("own-line directive not recognized: %+v", allows[1])
	}
	if allows[1].Line != fset.Position(allows[1].Pos).Line+1 {
		t.Errorf("own-line directive must guard the next line: %+v", allows[1])
	}
	// Trailing deletion range swallows the separating whitespace; own-line
	// deletion swallows the whole line including its newline.
	src, _ := os.ReadFile(fset.Position(f.Pos()).Filename)
	tf := fset.File(f.Pos())
	trail := string(src[tf.Offset(allows[0].DelPos):tf.Offset(allows[0].DelEnd)])
	if !strings.HasPrefix(trail, " ") || !strings.HasSuffix(trail, "reason one") {
		t.Errorf("trailing deletion range = %q", trail)
	}
	own := string(src[tf.Offset(allows[1].DelPos):tf.Offset(allows[1].DelEnd)])
	if !strings.HasSuffix(own, "\n") || !strings.Contains(own, "reason two") {
		t.Errorf("own-line deletion range = %q", own)
	}

	known := map[string]bool{"nowalltime": true}
	set, bad := analysis.NewAllowSet(allows, known)
	if len(bad) != 3 {
		t.Fatalf("want 3 malformed-directive findings, got %v", bad)
	}
	for i, sub := range []string{"malformed directive", "unknown analyzer nosuch", "missing reason"} {
		if !strings.Contains(bad[i].Message, sub) {
			t.Errorf("bad[%d] = %q, want it to contain %q", i, bad[i].Message, sub)
		}
		if bad[i].Analyzer != "simlint" {
			t.Errorf("bad[%d].Analyzer = %q, want simlint", i, bad[i].Analyzer)
		}
	}

	// The trailing directive suppresses its own line; the own-line one the
	// next; a miss on analyzer or line suppresses nothing.
	sleepPos := allows[0].Pos // same line as the guarded call
	if !set.Allows(fset, "nowalltime", sleepPos) {
		t.Error("trailing allow did not suppress its line")
	}
	if set.Allows(fset, "seededrand", sleepPos) {
		t.Error("allow suppressed a different analyzer")
	}
	if set.Allows(fset, "nowalltime", allows[1].Pos) {
		t.Error("own-line allow suppressed its own line instead of the next")
	}
	unused := set.Unused(func(string) bool { return true })
	if len(unused) != 1 || unused[0].Pos != allows[1].Pos {
		t.Errorf("unused = %+v, want only the own-line directive", unused)
	}
	if got := set.Unused(func(name string) bool { return false }); len(got) != 0 {
		t.Errorf("pred=false must restrict the audit, got %+v", got)
	}
}

func TestHotpathFuncs(t *testing.T) {
	_, f := parseOnDisk(t, directiveSrc)
	marked, misplaced := analysis.HotpathFuncs([]*ast.File{f})
	if len(marked) != 1 || marked[0].Name.Name != "hot" {
		t.Errorf("marked = %v, want [hot]", marked)
	}
	if len(misplaced) != 1 {
		t.Errorf("want 1 misplaced directive, got %d", len(misplaced))
	}
}

func TestPassFactsAndAllows(t *testing.T) {
	a := &analysis.Analyzer{Name: "demo"}
	var got []analysis.Diagnostic
	pass := analysis.NewPass(a, token.NewFileSet(), nil, nil, nil, func(d analysis.Diagnostic) {
		got = append(got, d)
	})

	// Facts pass through ExportFact and an imported-fact source.
	if pass.ExportedFacts() != nil {
		t.Error("fresh pass already has facts")
	}
	pass.ExportFact("p.F", []int{1, 2})
	if pass.ImportedFacts("dep") != nil {
		t.Error("ImportedFacts must be nil without a fact source")
	}
	pass.SetFactSource(func(pkgPath string) analysis.PackageFacts {
		if pkgPath != "dep" {
			return nil
		}
		return pass.ExportedFacts()
	})
	if v, _ := pass.ImportedFacts("dep")["p.F"].([]int); len(v) != 2 || v[0] != 1 || v[1] != 2 {
		t.Errorf("imported fact = %v", pass.ImportedFacts("dep")["p.F"])
	}

	// Allowed is nil-safe and routes through the configured source with
	// the analyzer's own name.
	if pass.Allowed(token.Pos(1)) {
		t.Error("Allowed must be false without an allow source")
	}
	pass.SetAllowSource(func(name string, pos token.Pos) bool { return name == "demo" })
	if !pass.Allowed(token.Pos(1)) {
		t.Error("Allowed must consult the source with the analyzer name")
	}

	// Reportf stamps the analyzer name.
	pass.Reportf(token.Pos(2), "n=%d", 7)
	if len(got) != 1 || got[0].Analyzer != "demo" || got[0].Message != "n=7" {
		t.Errorf("reported = %+v", got)
	}
}
