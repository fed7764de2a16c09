package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"durassd/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files in testdata from the current code")

// goldenSizes sizes every experiment small, with only Scale, Ops and Seed:
// device experiments at scale 32 / 400 ops, LinkBench ones at scale 1024 /
// 4,000 requests, TPC-C at 500 transactions.
var goldenSizes = map[string]Config{
	"table1":    {Scale: 32, Ops: 400, Seed: 1},
	"table2":    {Scale: 32, Ops: 400, Seed: 1},
	"fig5":      {Scale: 1024, Ops: 4_000, Seed: 1},
	"fig6":      {Scale: 1024, Ops: 4_000, Seed: 1},
	"table3":    {Scale: 1024, Ops: 4_000, Seed: 1},
	"table4":    {Scale: 1024, Ops: 500, Seed: 1},
	"table5":    {Ops: 1_000, Seed: 1},
	"endurance": {Scale: 1024, Ops: 4_000, Seed: 1},
	"breakdown": {Scale: 32, Ops: 400, Seed: 1},
	"tail":      {Scale: 32, Ops: 400, Seed: 1},
	"volume":    {Scale: 32, Ops: 400, Seed: 1},
	"media":     {Scale: 32, Seed: 1},
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// renderDigest hashes tables exactly as a command prints them with
// fmt.Println, one after another.
func renderDigest(tables []*stats.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return sha256Hex(b.String())
}

// checkGolden compares got, name by name, with the JSON map of digests at
// path; with -update-golden it rewrites path from got instead. drift says
// what a changed digest means.
func checkGolden(t *testing.T, path string, got map[string]string, drift string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading goldens (run with -update-golden to generate): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, test has %d", path, len(want), len(got))
	}
	for _, name := range SortedKeys(got) {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: missing from %s (run -update-golden)", name, path)
		} else if got[name] != w {
			t.Errorf("%s: %s\n  got  %s\n  want %s", name, drift, got[name], w)
		}
	}
}

// TestGoldenTables pins every experiment's rendered tables byte for byte: a
// refactor of the experiment code must leave each digest unchanged.
func TestGoldenTables(t *testing.T) {
	got := make(map[string]string, len(goldenSizes))
	for _, name := range SortedKeys(goldenSizes) {
		got[name] = renderDigest(mustRun(t, name, goldenSizes[name]).Tables)
	}
	checkGolden(t, "testdata/golden_tables.json", got, "rendered tables drifted")
}
