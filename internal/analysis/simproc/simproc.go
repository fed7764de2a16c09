// Package simproc forbids raw goroutines outside the simulation engine.
//
// Invariant protected: exactly one simulated process executes at any
// virtual instant, and the engine interleaves processes in a deterministic
// (timestamp, sequence) order. A raw `go` statement anywhere else
// introduces OS-scheduler interleaving that the engine cannot order, so
// two runs with the same seed may diverge — silently corrupting schedule
// digests, replayed crash prefixes, and every "same seed, same result"
// test in the tree. Concurrency in simulated components must be expressed
// as engine processes (sim.Engine.Go), which are ordinary goroutines
// *driven* by the engine's handoff protocol.
//
// OS-thread pinning is fenced everywhere, internal/sim included:
// runtime.LockOSThread and runtime.UnlockOSThread give a goroutine's
// coroutines (sim.Proc is an iter.Pull coroutine) an affinity to the locked
// thread, so resuming them from any other goroutine aborts the process. The
// cluster runtime's lanes are plain goroutines and create coroutines
// lazily, unlocked; a pin anywhere would reintroduce the affinity.
//
// internal/sim is exempt from the go-statement check only: it owns the
// handoff protocol and the cluster's lane goroutines, the one place raw
// goroutines are part of the design. Anything else needs an audited
// //simlint:allow simproc <reason> directive.
package simproc

import (
	"go/ast"
	"go/types"

	"durassd/internal/analysis"
)

// ExemptPaths are the packages allowed to start raw goroutines: the engine
// + cluster runtime only. Nothing is exempt from the thread-pinning check.
var ExemptPaths = map[string]bool{"durassd/internal/sim": true}

// Analyzer is the simproc check.
var Analyzer = &analysis.Analyzer{
	Name: "simproc",
	Doc:  "forbid raw go statements outside internal/sim and OS-thread pinning anywhere; simulated concurrency must go through engine processes so replay stays deterministic",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	goExempt := ExemptPaths[pass.Pkg.Path()]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goExempt {
					pass.Reportf(n.Pos(), "raw go statement outside internal/sim: OS-scheduled goroutines break deterministic replay; use sim.Engine.Go to start an engine process")
				}
			case *ast.CallExpr:
				if name := threadLockCall(pass, n); name != "" {
					pass.Reportf(n.Pos(), "runtime.%s pins a goroutine to an OS thread: coroutines created under the pin abort when another goroutine resumes them, and no lane of the cluster runtime is pinned", name)
				}
			}
			return true
		})
	}
	return nil
}

// threadLockCall returns "LockOSThread"/"UnlockOSThread" when call invokes
// the corresponding runtime function, else "".
func threadLockCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "runtime" {
		return ""
	}
	if n := fn.Name(); n == "LockOSThread" || n == "UnlockOSThread" {
		return n
	}
	return ""
}
