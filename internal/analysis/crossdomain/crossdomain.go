// Package crossdomain polices memory shared across simulation domains.
//
// Invariant protected: the parallel cluster runs each sim.Domain on its
// own goroutine and only synchronizes at epoch barriers. State owned by
// one domain must therefore never be mutated from another domain except
// through the message values shipped by Domain.Send and Domain.Call —
// anything else is a data race in host time and, worse, a determinism
// leak in virtual time. The dangerous patterns are closures: a func value
// handed to Send executes later in the destination domain, and a func
// value handed to Call executes in the destination domain while the
// caller is parked.
//
// Two rules:
//
// Send (asynchronous) — a variable captured by the shipped closure that
// the sender goes on using after the send is shared mutable state with no
// ordering between the two domains. Flagged when the capture is
// pointer-shaped, written inside the closure, or written by the sender
// afterwards. "Afterwards" is judged inside the innermost enclosing
// function: textually after the send, anywhere in an enclosing loop body
// (the next iteration runs after the send), or inside a deferred closure.
// Method values ship their receiver the same way. A self-send
// (d.Send(d, …)) is an ordinary local event and is exempt, as are
// captures of the simulator's own messaging primitives (*sim.Domain,
// *sim.Cluster, *sim.Engine, *sim.Proc), which are designed to be named
// across domains.
//
// Call (synchronous) — the caller is parked and the epoch barrier orders
// the callee's writes before the caller resumes, so captures may be read
// and results written back through bare captured identifiers
// (`v, found, err = st.Get(q, key)` is the sanctioned idiom). What must
// not happen is retention: the closure storing a reference to
// caller-domain memory into state that outlives the call — a write
// through a selector/index/dereference rooted outside the closure whose
// right-hand side mentions a captured pointer or takes the address of an
// outer variable. After the call returns, the remote domain would mutate
// the caller's memory with no barrier in sight.
//
// Wrappers that forward a func-typed parameter into Send or Call export a
// summary fact ({"sends":[i]} / {"calls":[j]}), so call sites of e.g. a
// span-proxy helper in another package get the same scrutiny as direct
// sends.
package crossdomain

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"durassd/internal/analysis"
	"durassd/internal/analysis/callgraph"
)

// Analyzer is the crossdomain check.
var Analyzer = &analysis.Analyzer{
	Name: "crossdomain",
	Doc:  "state owned by one sim.Domain must not be shared with or retained by another domain except through Send/Call message values",
	Run:  run,
}

// The simulator's messaging entry points, matched by qualified name.
const (
	simPath      = "durassd/internal/sim"
	sendFullName = "(*durassd/internal/sim.Domain).Send"
	callFullName = "(*durassd/internal/sim.Domain).Call"
)

const (
	kindSend = iota
	kindCall
)

// shipsFact is the exported summary for functions that forward func-typed
// parameters into Send (async) or Call (sync).
type shipsFact struct {
	Sends []int
	Calls []int
}

// shipPoint describes where a given call expression ships closures:
// which argument indices, and with which delivery semantics.
type shipPoint struct {
	kind int
	arg  int
	dst  int // argument index of the destination *Domain, or -1
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	ships := inferShips(pass)
	for name, f := range ships.export {
		pass.ExportFact(name, f)
	}

	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, sp := range ships.at(info, call) {
				if sp.arg >= len(call.Args) {
					continue
				}
				if sp.dst >= 0 && sp.dst < len(call.Args) && isSelfSend(call, sp.dst) {
					continue
				}
				checkShipment(pass, call, call.Args[sp.arg], sp.kind, append([]ast.Node(nil), stack...))
			}
			return true
		})
	}
	return nil
}

// isSelfSend reports whether the receiver domain and destination argument
// are textually the same expression: d.Send(d, …) is a local event.
func isSelfSend(call *ast.CallExpr, dstArg int) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return types.ExprString(ast.Unparen(sel.X)) == types.ExprString(ast.Unparen(call.Args[dstArg]))
}

// checkShipment applies the Send or Call rule to one shipped func value.
func checkShipment(pass *analysis.Pass, call *ast.CallExpr, fnArg ast.Expr, kind int, stack []ast.Node) {
	info := pass.TypesInfo
	switch arg := ast.Unparen(fnArg).(type) {
	case *ast.FuncLit:
		if kind == kindSend {
			checkSendCaptures(pass, call, arg, capturedVars(info, arg), stack)
		} else {
			checkCallRetention(pass, arg)
		}
	case *ast.SelectorExpr:
		// Method value: pc.PowerFail ships its receiver.
		sel, ok := info.Selections[arg]
		if !ok || sel.Kind() != types.MethodVal {
			return
		}
		if kind != kindSend {
			return
		}
		if id, ok := rootIdent(arg.X); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				checkSendCaptures(pass, call, arg, []*types.Var{v}, stack)
			}
		}
	}
}

// checkSendCaptures flags captured variables the sender keeps using after
// an asynchronous ship.
func checkSendCaptures(pass *analysis.Pass, call *ast.CallExpr, shipped ast.Node, caps []*types.Var, stack []ast.Node) {
	info := pass.TypesInfo
	body, loop := enclosing(stack, call)
	if body == nil {
		return
	}
	for _, v := range caps {
		if exemptType(v.Type()) {
			continue
		}
		after := afterUses(info, body, loop, call, shipped, v)
		if len(after) == 0 {
			continue
		}
		afterPos := map[token.Pos]bool{}
		for _, id := range after {
			afterPos[id.Pos()] = true
		}
		shared := pointerShaped(v.Type()) ||
			writesVar(info, shipped, v) ||
			writesInRegion(info, body, v, afterPos)
		if !shared {
			continue
		}
		pass.Reportf(call.Pos(),
			"variable %s is captured by a closure sent to another domain but still used by the sender at %s; cross-domain messages must transfer ownership, not share memory",
			v.Name(), posString(pass.Fset, after[0].Pos()))
	}
}

// checkCallRetention flags a synchronous Call closure that stores
// caller-domain references into state that outlives the call.
func checkCallRetention(pass *analysis.Pass, lit *ast.FuncLit) {
	info := pass.TypesInfo
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lhs = ast.Unparen(lhs)
			if _, bare := lhs.(*ast.Ident); bare {
				continue // bare result write-back: the sanctioned idiom
			}
			root, ok := rootIdent(lhs)
			if !ok {
				continue
			}
			rv, ok := info.Uses[root].(*types.Var)
			if !ok || declaredInside(rv, lit) {
				continue
			}
			if i >= len(as.Rhs) && len(as.Rhs) != 1 {
				continue
			}
			rhs := as.Rhs[min(i, len(as.Rhs)-1)]
			if ref, name := mentionsCallerMemory(info, rhs, lit); ref {
				pass.Reportf(as.Pos(),
					"closure run in another domain via Call stores a reference to caller memory (%s) into %s; the remote domain would retain caller state beyond the call",
					name, types.ExprString(lhs))
			}
		}
		return true
	})
}

// mentionsCallerMemory reports whether expr carries a reference to memory
// from the calling domain: a pointer-shaped variable declared outside the
// closure, or the address of any outer variable.
func mentionsCallerMemory(info *types.Info, expr ast.Expr, lit *ast.FuncLit) (bool, string) {
	found := ""
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return true
			}
			if id, ok := rootIdent(x.X); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && !declaredInside(v, lit) && !exemptType(v.Type()) {
					found = "&" + v.Name()
					return false
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok &&
				!v.IsField() && !declaredInside(v, lit) && !packageLevel(v) &&
				pointerShaped(v.Type()) && !exemptType(v.Type()) {
				found = v.Name()
				return false
			}
		}
		return true
	})
	return found != "", found
}

// enclosing returns the innermost enclosing function body around call and
// the outermost loop between that function and the call, using the
// ancestor stack captured during the walk.
func enclosing(stack []ast.Node, call *ast.CallExpr) (*ast.BlockStmt, ast.Stmt) {
	var loop ast.Stmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch x := stack[i].(type) {
		case *ast.FuncLit:
			return x.Body, loop
		case *ast.FuncDecl:
			return x.Body, loop
		case *ast.ForStmt:
			loop = x
		case *ast.RangeStmt:
			loop = x
		}
	}
	return nil, loop
}

// afterUses collects identifiers of v in the after-region of body: past
// the call, in an enclosing loop body, or inside deferred closures —
// always excluding the shipped value itself.
func afterUses(info *types.Info, body *ast.BlockStmt, loop ast.Stmt, call *ast.CallExpr, shipped ast.Node, v *types.Var) []*ast.Ident {
	var out []*ast.Ident
	inShipped := func(pos token.Pos) bool {
		return pos >= shipped.Pos() && pos <= shipped.End()
	}
	inLoop := func(pos token.Pos) bool {
		return loop != nil && pos >= loop.Pos() && pos <= loop.End()
	}
	var deferRanges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && !inShipped(d.Pos()) {
			deferRanges = append(deferRanges, [2]token.Pos{d.Pos(), d.End()})
		}
		return true
	})
	inDefer := func(pos token.Pos) bool {
		for _, r := range deferRanges {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != v || inShipped(id.Pos()) {
			return true
		}
		if id.Pos() > call.End() || inLoop(id.Pos()) || inDefer(id.Pos()) {
			out = append(out, id)
		}
		return true
	})
	return out
}

// writesVar reports whether v is written anywhere inside node.
func writesVar(info *types.Info, node ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		found = writeTargets(info, n, func(w *types.Var) bool { return w == v }, nil)
		return !found
	})
	return found
}

// writesInRegion reports whether v is written by a statement whose
// target identifier sits at one of the after-region positions.
func writesInRegion(info *types.Info, body *ast.BlockStmt, v *types.Var, region map[token.Pos]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		found = writeTargets(info, n, func(w *types.Var) bool { return w == v }, region)
		return !found
	})
	return found
}

// writeTargets reports whether node is a statement/expression that writes
// a variable matching pred: assignment LHS roots, ++/--, and address-of.
// When region is non-nil, only target identifiers at those positions
// count.
func writeTargets(info *types.Info, node ast.Node, pred func(*types.Var) bool, region map[token.Pos]bool) bool {
	check := func(e ast.Expr) bool {
		id, ok := rootIdent(e)
		if !ok {
			return false
		}
		if region != nil && !region[id.Pos()] {
			return false
		}
		if v, ok := info.Uses[id].(*types.Var); ok && pred(v) {
			return true
		}
		if v, ok := info.Defs[id].(*types.Var); ok && pred(v) {
			return true
		}
		return false
	}
	switch x := node.(type) {
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			if check(lhs) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return check(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return check(x.X)
		}
	case *ast.RangeStmt:
		if x.Key != nil && check(x.Key) {
			return true
		}
		if x.Value != nil && check(x.Value) {
			return true
		}
	}
	return false
}

// inferShips computes, to a local fixpoint, which functions forward a
// func-typed parameter into Send (async) or Call (sync) — directly as the
// shipped argument, possibly through another local or imported shipper.
type shipsIndex struct {
	pass   *analysis.Pass
	local  map[*types.Func]*shipsFact
	export map[string]*shipsFact
}

func inferShips(pass *analysis.Pass) *shipsIndex {
	info := pass.TypesInfo
	idx := &shipsIndex{pass: pass, local: map[*types.Func]*shipsFact{}, export: map[string]*shipsFact{}}

	type declInfo struct {
		fn     *types.Func
		decl   *ast.FuncDecl
		params map[*types.Var]int
	}
	var decls []declInfo
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			params := map[*types.Var]int{}
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				if _, isFunc := p.Type().Underlying().(*types.Signature); isFunc {
					params[p] = i
				}
			}
			decls = append(decls, declInfo{fn, fd, params})
		}
	}

	for changed := true; changed; {
		changed = false
		for _, di := range decls {
			ast.Inspect(di.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, sp := range idx.at(info, call) {
					if sp.arg >= len(call.Args) {
						continue
					}
					id, ok := ast.Unparen(call.Args[sp.arg]).(*ast.Ident)
					if !ok {
						continue
					}
					v, ok := info.Uses[id].(*types.Var)
					if !ok {
						continue
					}
					pi, isParam := di.params[v]
					if !isParam {
						continue
					}
					f := idx.local[di.fn]
					if f == nil {
						f = &shipsFact{}
						idx.local[di.fn] = f
					}
					if sp.kind == kindSend && !hasInt(f.Sends, pi) {
						f.Sends = append(f.Sends, pi)
						changed = true
					}
					if sp.kind == kindCall && !hasInt(f.Calls, pi) {
						f.Calls = append(f.Calls, pi)
						changed = true
					}
				}
				return true
			})
		}
	}
	for fn, f := range idx.local {
		idx.export[fn.FullName()] = f
	}
	return idx
}

// at classifies one call expression's shipping behavior: the intrinsic
// Domain.Send / Domain.Call entry points, or any function carrying a
// ships fact (local or imported).
func (idx *shipsIndex) at(info *types.Info, call *ast.CallExpr) []shipPoint {
	callee := callgraph.StaticCallee(info, call)
	if callee == nil {
		return nil
	}
	switch callee.FullName() {
	case sendFullName:
		return []shipPoint{{kind: kindSend, arg: 1, dst: 0}}
	case callFullName:
		return []shipPoint{{kind: kindCall, arg: 3, dst: 1}}
	}
	var fact *shipsFact
	if f, ok := idx.local[callee]; ok {
		fact = f
	} else if pkg := callee.Pkg(); pkg != nil && pkg != idx.pass.Pkg {
		fact, _ = idx.pass.ImportedFacts(pkg.Path())[callee.FullName()].(*shipsFact)
	}
	if fact == nil {
		return nil
	}
	var out []shipPoint
	for _, i := range fact.Sends {
		out = append(out, shipPoint{kind: kindSend, arg: i, dst: -1})
	}
	for _, i := range fact.Calls {
		out = append(out, shipPoint{kind: kindCall, arg: i, dst: -1})
	}
	return out
}

// capturedVars lists the variables a function literal closes over (same
// definition as hotalloc: declared outside the literal, not package
// level, not fields).
func capturedVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
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
		if packageLevel(v) {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

func packageLevel(v *types.Var) bool {
	pkg := v.Pkg()
	return pkg == nil || pkg.Scope().Lookup(v.Name()) == v
}

func declaredInside(v *types.Var, lit *ast.FuncLit) bool {
	return v.Pos() >= lit.Pos() && v.Pos() <= lit.End()
}

// exemptType reports whether t is one of the simulator's messaging
// primitives, which are designed to be named across domains.
func exemptType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	} else if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != simPath {
		return false
	}
	switch obj.Name() {
	case "Domain", "Cluster", "Engine", "Proc":
		return true
	}
	return false
}

// pointerShaped reports whether values of t carry references: pointers,
// slices, maps, chans, funcs, interfaces, or aggregates containing them.
func pointerShaped(t types.Type) bool {
	return pointerShapedDepth(t, 0)
}

func pointerShapedDepth(t types.Type, depth int) bool {
	if depth > 10 {
		return true // give up conservatively
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerShapedDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return pointerShapedDepth(u.Elem(), depth+1)
	}
	return false
}

// rootIdent unwraps selectors, indexes, stars, slices and parens down to
// the base identifier.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

func hasInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// posString renders a position compactly for diagnostics.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
