// Package procbudget guards the per-request process budget of the device
// hot path.
//
// Invariant protected: the device request path (devfront NCQ slots, ssd
// command dispatch, ftl program/GC, nand plane ops) runs on the scheduler's
// zero-allocation fast path — parked coroutines plus Schedule/Timer
// callbacks — so a simulated I/O costs no process spawn. A sim.Engine.Go
// call on that path allocates a Proc and a coroutine per request and
// reintroduces exactly the per-request churn the scheduler refactor
// removed, silently regressing events/sec for every experiment. New
// processes in these packages must be long-lived (started at construction,
// living for the device's lifetime) and must carry an audited
// //simlint:allow procbudget <reason> directive; per-request work belongs
// in callbacks or on an existing process. sim.Domain.Go — the cluster-era
// shorthand for Engine().Go — counts against the same budget, and so does
// Spawn on either: it recycles the Proc record, but a spawned process still
// costs a start event and two coroutine switches per request.
//
// Test files are exempt: spawning driver processes is how device tests
// express workloads, and none of that runs inside measured scenarios.
package procbudget

import (
	"go/ast"
	"go/types"
	"strings"

	"durassd/internal/analysis"
)

// TargetPaths are the device hot-path packages under budget.
var TargetPaths = map[string]bool{
	"durassd/internal/devfront": true,
	"durassd/internal/ssd":      true,
	"durassd/internal/ftl":      true,
	"durassd/internal/nand":     true,
}

// Analyzer is the procbudget check.
var Analyzer = &analysis.Analyzer{
	Name: "procbudget",
	Doc:  "require an audited //simlint:allow justification for sim.Engine.Go inside the device hot-path packages; per-request processes defeat the zero-alloc scheduler fast path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !TargetPaths[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || (fn.Name() != "Go" && fn.Name() != "Spawn") {
				return true
			}
			recv := spawnReceiver(fn)
			if recv == "" {
				return true
			}
			pass.Reportf(call.Pos(), "sim.%s.%s in device hot-path package %s: per-request processes defeat the zero-alloc scheduler fast path; use Schedule/Timer callbacks or an existing process, or justify a long-lived singleton with //simlint:allow procbudget <reason>", recv, fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil
}

// spawnReceiver returns "Engine" or "Domain" when fn is the corresponding
// process-spawning method of durassd/internal/sim (Domain.Go is just
// Engine().Go shorthand, so both count against the budget), else "".
func spawnReceiver(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	ptr, ok := sig.Recv().Type().(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "durassd/internal/sim" {
		return ""
	}
	if n := obj.Name(); n == "Engine" || n == "Domain" {
		return n
	}
	return ""
}
