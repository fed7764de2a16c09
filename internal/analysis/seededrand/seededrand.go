// Package seededrand forbids the global math/rand generators.
//
// Invariant protected: every random choice in a run — fio offsets,
// LinkBench/TPC-C transaction mixes, fault-injection cut instants — must
// derive from the run's configured seed, so identical seeds give identical
// schedules (even under `go test -shuffle`, which perturbs the implicit
// global source's consumption order across tests). The global math/rand
// and math/rand/v2 top-level functions draw from process-wide state that
// any package can advance; they are banned everywhere. Construct a local
// generator instead:
//
//	rng := rand.New(rand.NewSource(cfg.Seed))
//
// and thread the *rand.Rand through. When a *rand.Rand is already in
// scope, `simlint -fix` mechanically rewrites the global call to use it.
//
// What only this check catches: a global rand.Int63n planted in serve's
// Group.backoff passed `go test ./internal/serve ./internal/crashpoint
// ./internal/repro`, and both servebench digests (bdaed922f7ffb3e4 and,
// with -chaos, 5ea8e34d4685d56d) stayed the same.
package seededrand

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"durassd/internal/analysis"
)

// forbidden are the top-level math/rand functions that consume the global
// source. Constructors (New, NewSource, NewZipf) and *rand.Rand methods
// are the sanctioned replacements and stay allowed.
var forbidden = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "Uint": true, "UintN": true,
}

var randPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

// Analyzer is the seededrand check.
var Analyzer = &analysis.Analyzer{
	Name: "seededrand",
	Doc:  "forbid global math/rand functions; randomness must flow from an injected *rand.Rand seeded by the run configuration",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || !randPkgs[pn.Imported().Path()] || !forbidden[sel.Sel.Name] {
				return true
			}
			d := analysis.Diagnostic{
				Pos: sel.Pos(),
				Message: fmt.Sprintf("global %s.%s draws from process-wide state; use a *rand.Rand seeded from the run's seed",
					pn.Imported().Path(), sel.Sel.Name),
			}
			// Mechanical fix: if exactly one *rand.Rand variable is in
			// scope at the call site, route the call through it.
			if rng, ok := scopedRand(pass, sel.Pos(), pn.Imported()); ok {
				d.SuggestedFixes = []analysis.SuggestedFix{{
					Message: fmt.Sprintf("call %s.%s instead", rng, sel.Sel.Name),
					TextEdits: []analysis.TextEdit{{
						Pos: id.Pos(), End: id.End(), NewText: []byte(rng),
					}},
				}}
			}
			pass.Report(d)
			return true
		})
	}
	return nil
}

// scopedRand returns the name of the unique variable of type *rand.Rand
// (from randPkg) visible at pos, if there is exactly one. Zero or several
// candidates mean the rewrite is ambiguous and no fix is offered.
func scopedRand(pass *analysis.Pass, pos token.Pos, randPkg *types.Package) (string, bool) {
	inner := pass.Pkg.Scope().Innermost(pos)
	if inner == nil {
		return "", false
	}
	seen := map[string]bool{}
	var names []string
	for s := inner; s != nil; s = s.Parent() {
		for _, name := range s.Names() {
			obj := s.Lookup(name)
			v, ok := obj.(*types.Var)
			if !ok || seen[name] {
				continue
			}
			// Names in inner scopes shadow outer ones either way.
			seen[name] = true
			if !isRandRand(v.Type(), randPkg) {
				continue
			}
			// A local declared after the call site is not yet in scope.
			if s != types.Universe && s.Contains(pos) && v.Pos() > pos {
				continue
			}
			names = append(names, name)
		}
	}
	if len(names) == 1 {
		return names[0], true
	}
	return "", false
}

// isRandRand reports whether t is *rand.Rand of the given rand package.
func isRandRand(t types.Type, randPkg *types.Package) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Rand" && obj.Pkg() != nil && obj.Pkg().Path() == randPkg.Path()
}
