// Package hotalloc enforces allocation-free hot paths.
//
// Invariant protected: PR 6 took the dispatch loop from 2.83 to 0.23
// allocs/event by pooling events, reusing scratch buffers, and keeping
// per-request work off the garbage collector; nothing but a benchmark
// regression gate guards that property dynamically. This analyzer guards
// it statically: a function whose doc comment carries //simlint:hotpath,
// and every function statically reachable from it — across package
// boundaries, via per-function summary facts the driver threads along
// import edges — must not heap-allocate.
//
// Flagged allocation sites: composite literals whose address is taken,
// slice and map literals, make and new, append that can grow its backing
// array (the in-place idioms `x = append(x, …)` and `x = append(x[:0], …)`
// are amortized into an existing backing array and exempt), string
// concatenation, []byte/string/[]rune conversions, closures that capture
// variables, bound-method values, fmt calls, and arguments boxed into
// interface parameters at call sites. Calls that leave the package are
// checked against the callee's exported summary: if anything behind the
// call allocates, the call site is flagged with the attribution chain
// ("via ssd.(*DuraSSD).Write → ftl.(*FTL).MapWrite").
//
// Two cold regions are exempt because they run only when the simulation
// is already failing: deferred closures containing recover(), and the
// arguments of panic calls. Everything else on a hot path needs either a
// fix or an audited //simlint:allow hotalloc directive with a reason.
//
// Dynamic dispatch — interface method calls, function values — has no
// static callee and is not followed; hot paths that fan out through
// interfaces (storage.Device implementations, timer callbacks) are
// covered by seeding //simlint:hotpath on each implementation's entry
// points, which the repository does across sim, devfront, ssd, ftl, nand,
// and core.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"durassd/internal/analysis"
	"durassd/internal/analysis/callgraph"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //simlint:hotpath and everything statically reachable from them must not heap-allocate",
	Run:  run,
}

// allocEntry is one reachable allocation in a function's exported
// summary fact.
type allocEntry struct {
	P string   // site position, file:line:col
	W string   // what allocates
	V []string // call chain from the summarized function to the site
}

const (
	// maxEntriesPerFunc bounds each summary so facts stay small; a hot
	// function with more than this many reachable allocations is broken
	// enough that the first few findings tell the story.
	maxEntriesPerFunc = 8
	// maxChain bounds attribution depth.
	maxChain = 6
)

// site is one local allocation site.
type site struct {
	pos  token.Pos
	what string
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	marked, misplaced := analysis.HotpathFuncs(pass.Files)
	for _, pos := range misplaced {
		pass.Reportf(pos, "misplaced //simlint:hotpath directive: it must appear in a function declaration's doc comment")
	}

	skip := coldRegionSkipper(info)
	graph := callgraph.Build(info, pass.Files, skip)

	// A //simlint:allow hotalloc directive trailing a function declaration
	// exempts the whole function: its sites are neither reported nor
	// exported, and the hot walk stops at its boundary. This is how cold
	// recovery chains (media-error retirement, refresh migration) opt out
	// once, at their gateway, instead of needing an allow at every
	// transitive allocation they reach.
	exempt := make(map[*types.Func]bool)
	sites := make(map[*types.Func][]site)
	for _, n := range graph.Nodes {
		if pass.Allowed(n.Decl.Pos()) {
			exempt[n.Func] = true
			continue
		}
		sites[n.Func] = collectSites(pass, n.Decl, skip)
	}

	// Bottom-up summaries: every function's transitively reachable
	// allocations, composed from local sites, local callees, and imported
	// facts. Exported so importing packages see through this one.
	memo := make(map[*types.Func][]allocEntry)
	visiting := make(map[*types.Func]bool)
	var summarize func(fn *types.Func) []allocEntry
	external := func(callee *types.Func) []allocEntry {
		pkg := callee.Pkg()
		if pkg == nil || pkg == pass.Pkg {
			return nil
		}
		entries, _ := pass.ImportedFacts(pkg.Path())[callee.FullName()].([]allocEntry)
		return entries
	}
	summarize = func(fn *types.Func) []allocEntry {
		if exempt[fn] {
			return nil
		}
		if e, ok := memo[fn]; ok {
			return e
		}
		if visiting[fn] {
			// Recursion: the cycle's sites are collected at the first
			// visit; cutting here under-counts nothing.
			return nil
		}
		visiting[fn] = true
		defer func() { visiting[fn] = false }()

		var out []allocEntry
		seen := make(map[string]bool)
		add := func(e allocEntry) {
			key := e.P + "|" + e.W
			if seen[key] || len(out) >= maxEntriesPerFunc {
				return
			}
			seen[key] = true
			out = append(out, e)
		}
		for _, s := range sites[fn] {
			add(allocEntry{P: posString(pass.Fset, s.pos), W: s.what})
		}
		if n := graph.Nodes[fn]; n != nil {
			for _, c := range n.Calls {
				var callee []allocEntry
				if _, local := graph.Nodes[c.Callee]; local {
					callee = summarize(c.Callee)
				} else {
					callee = external(c.Callee)
				}
				for _, e := range callee {
					if len(e.V) >= maxChain {
						continue
					}
					add(allocEntry{P: e.P, W: e.W, V: append([]string{c.Callee.FullName()}, e.V...)})
				}
			}
		}
		memo[fn] = out
		return out
	}
	for _, n := range graph.Nodes {
		if entries := summarize(n.Func); len(entries) > 0 {
			pass.ExportFact(n.Func.FullName(), entries)
		}
	}

	// Report: walk the hot closure from each marked root. Local sites are
	// reported in place; allocations behind a cross-package call are
	// reported at the call site with the chain that reaches them.
	reported := make(map[token.Pos]bool)
	walked := make(map[*types.Func]bool)
	var visit func(fn *types.Func, path []string)
	visit = func(fn *types.Func, path []string) {
		if walked[fn] || exempt[fn] {
			return
		}
		walked[fn] = true
		for _, s := range sites[fn] {
			if reported[s.pos] {
				continue
			}
			reported[s.pos] = true
			msg := "heap allocation on hot path: " + s.what
			if len(path) > 1 {
				msg += " (reached via " + strings.Join(path, " → ") + ")"
			}
			pass.Reportf(s.pos, "%s", msg)
		}
		n := graph.Nodes[fn]
		if n == nil {
			return
		}
		for _, c := range n.Calls {
			if _, local := graph.Nodes[c.Callee]; local {
				visit(c.Callee, append(path, shorten(c.Callee.FullName())))
				continue
			}
			entries := external(c.Callee)
			if len(entries) == 0 || reported[c.Pos] {
				continue
			}
			reported[c.Pos] = true
			e := entries[0]
			chain := append(append([]string{}, path...), shorten(c.Callee.FullName()))
			for _, v := range e.V {
				chain = append(chain, shorten(v))
			}
			msg := fmt.Sprintf("call on hot path reaches heap allocation: %s at %s (via %s)", e.W, e.P, strings.Join(chain, " → "))
			if len(entries) > 1 {
				msg += fmt.Sprintf("; %d more allocation site(s) behind this call", len(entries)-1)
			}
			pass.Reportf(c.Pos, "%s", msg)
		}
	}
	for _, fd := range marked {
		fn, ok := info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		visit(fn, []string{shorten(fn.FullName())})
	}
	return nil
}

// coldRegionSkipper returns the subtree filter for regions that only run
// when the simulation is already failing.
func coldRegionSkipper(info *types.Info) func(ast.Node) bool {
	return func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok && containsRecover(info, lit) {
				return true
			}
		case *ast.CallExpr:
			if isBuiltin(info, x, "panic") {
				return true
			}
		}
		return false
	}
}

func containsRecover(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(info, call, "recover") {
			found = true
		}
		return !found
	})
	return found
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// collectSites walks one declaration's body and records every local
// allocation site, excluding cold regions and amortized appends.
func collectSites(pass *analysis.Pass, decl *ast.FuncDecl, skip func(ast.Node) bool) []site {
	info := pass.TypesInfo
	amortized := amortizedAppends(info, decl.Body)
	calleeExprs := make(map[ast.Expr]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			calleeExprs[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	var out []site
	add := func(pos token.Pos, what string) {
		// An allow directly on the site keeps it out of the exported
		// summary too, so importing packages do not re-report it.
		if pass.Allowed(pos) {
			return
		}
		out = append(out, site{pos, what})
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if skip(n) {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					add(x.Pos(), "composite literal escapes to the heap (&"+typeName(info, x.X)+"{…})")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					add(x.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					add(x.Pos(), "map literal allocates")
				}
			}
		case *ast.FuncLit:
			if caps := captured(info, x); len(caps) > 0 {
				add(x.Pos(), "closure captures "+strings.Join(caps, ", ")+" and allocates")
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal && !calleeExprs[ast.Expr(x)] {
				add(x.Pos(), "method value "+x.Sel.Name+" allocates a bound-method closure")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isNonConstString(info, x) {
				add(x.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(info, x.Lhs[0]) {
				add(x.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			collectCallSites(pass, x, amortized, add)
		}
		return true
	})
	return out
}

// collectCallSites handles the allocation classes rooted at a call
// expression: builtins, conversions, fmt, and interface boxing.
func collectCallSites(pass *analysis.Pass, call *ast.CallExpr, amortized map[*ast.CallExpr]bool, add func(token.Pos, string)) {
	info := pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				if !amortized[call] {
					add(call.Pos(), "append may grow and reallocate its backing array")
				}
			}
			return
		}
	}

	// Conversion: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		dst := tv.Type
		if len(call.Args) != 1 {
			return
		}
		src, ok := info.Types[call.Args[0]]
		if !ok {
			return
		}
		switch dst.Underlying().(type) {
		case *types.Slice:
			if isString(info, call.Args[0]) {
				add(call.Pos(), "string-to-slice conversion allocates")
			}
		case *types.Basic:
			if b, ok := dst.Underlying().(*types.Basic); ok && b.Kind() == types.String {
				if _, isSlice := src.Type.Underlying().(*types.Slice); isSlice {
					add(call.Pos(), "slice-to-string conversion allocates")
				}
			}
		case *types.Interface:
			if boxes(src) {
				add(call.Pos(), "conversion to interface boxes "+src.Type.String())
			}
		}
		return
	}

	if callee := callgraph.StaticCallee(info, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		add(call.Pos(), "call to fmt."+callee.Name()+" allocates")
		return
	}

	// Interface boxing at the call site: concrete, non-pointer-shaped
	// arguments passed to interface parameters.
	sig, ok := info.Types[fun].Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... forwards an existing slice, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if src, ok := info.Types[arg]; ok && boxes(src) {
			add(arg.Pos(), "argument boxed into interface parameter ("+src.Type.String()+")")
		}
	}
}

// boxes reports whether converting the value to an interface heap-boxes
// it: concrete, not pointer-shaped, not a compile-time constant.
func boxes(tv types.TypeAndValue) bool {
	if tv.Value != nil || tv.IsNil() || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return tv.Type.Underlying().(*types.Basic).Kind() != types.UnsafePointer
	}
	return true
}

// amortizedAppends finds append calls in the in-place idioms
// `x = append(x, …)` and `x = append(x[:0], …)` (any self-slice base):
// they reuse an existing backing array and are amortized allocation-free.
func amortizedAppends(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || !isBuiltin(info, call, "append") {
				continue
			}
			dst := types.ExprString(as.Lhs[i])
			arg0 := ast.Unparen(call.Args[0])
			if se, ok := arg0.(*ast.SliceExpr); ok {
				arg0 = ast.Unparen(se.X)
			}
			if types.ExprString(arg0) == dst {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// captured lists the variables a function literal closes over: named
// objects declared outside the literal but inside some enclosing
// function (package-level state is not a capture).
func captured(info *types.Info, lit *ast.FuncLit) []string {
	seen := make(map[*types.Var]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() == token.NoPos || (v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
			return true
		}
		if pkg := v.Pkg(); pkg == nil || pkg.Scope().Lookup(v.Name()) == v {
			return true // package-level variable, not a capture
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}

func isString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value == nil && isString(info, e)
}

func typeName(info *types.Info, e ast.Expr) string {
	if tv, ok := info.Types[ast.Unparen(e)]; ok && tv.Type != nil {
		s := tv.Type.String()
		if i := strings.LastIndexByte(s, '/'); i >= 0 {
			s = s[i+1:]
		}
		return s
	}
	return "T"
}

// posString renders a site position compactly for facts and messages.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}

// shorten trims module path noise from a FullName for diagnostics.
func shorten(full string) string {
	return strings.ReplaceAll(full, "durassd/internal/", "")
}
