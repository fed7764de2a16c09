// Command simlint mechanically enforces the repository's determinism and
// crash-safety invariants with a suite of custom static analyzers:
//
//	crossdomain     no state shared with or retained by another sim.Domain
//	                outside Send/Call message values
//	devcheck        no discarded storage.Device / PowerCycler errors
//	directiveaudit  no stale //simlint:allow directives
//	hotalloc        no heap allocation reachable from //simlint:hotpath
//	                functions
//	maporder        no map-iteration order leaking into digests or reports
//	nowalltime      no wall-clock time in sim-driven packages
//	procbudget      event-handler budgets respected
//	seededrand      no global math/rand; randomness flows from the run seed
//	simproc         no raw goroutines outside internal/sim
//
// Usage:
//
//	go run ./cmd/simlint [flags] [packages]
//
// Packages default to ./.... Exit status is 0 when the tree is clean, 1
// when findings are reported, 2 on an internal error. Audited exceptions
// use a directive with a mandatory reason, either trailing the offending
// line or on the line above it:
//
//	//simlint:allow nowalltime progress meter shows real elapsed time
//
// -fix applies the mechanical rewrites (routing global math/rand calls
// through the unique *rand.Rand already in scope; deleting stale allow
// directives). -json emits machine-readable diagnostics for CI artifacts.
//
// Every matched package is loaded with its test files, and every module
// package they import, directly or indirectly, without its tests. All are
// type-checked from source and analyzed in dependency order, so summary
// facts flow along every import edge and a package gets the same findings
// under any pattern; only the matched packages' findings are reported.
// Nothing is cached between runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"durassd/internal/analysis"
	"durassd/internal/analysis/all"
	"durassd/internal/analysis/driver"
)

func main() {
	os.Exit(run())
}

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Package  string `json:"package"`
}

func run() int {
	fix := flag.Bool("fix", false, "apply suggested fixes instead of reporting them")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	flag.Parse()

	if *list {
		for _, a := range all.Analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := all.Analyzers
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all.Analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "simlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := driver.NewLoader("").Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}
	res, err := driver.Run(pkgs, analyzers, *fix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 2
	}

	if *jsonOut {
		out := make([]jsonFinding, 0, len(res.Findings))
		for _, f := range res.Findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Position.Filename,
				Line:     f.Position.Line,
				Col:      f.Position.Column,
				Message:  f.Message,
				Package:  f.Package,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
	}
	if res.Fixed > 0 {
		fmt.Fprintf(os.Stderr, "simlint: applied %d fixes\n", res.Fixed)
	}
	matched := 0
	for _, p := range pkgs {
		if !p.Dep {
			matched++
		}
	}
	fmt.Fprintf(os.Stderr, "simlint: %d packages analyzed\n", matched)
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d findings\n", len(res.Findings))
		return 1
	}
	return 0
}
