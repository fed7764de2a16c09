// Package callgraph builds the static, package-level call graph hotalloc
// walks, and resolves the static callee crossdomain matches. Edges
// are the statically resolvable calls only: package functions, methods on
// concrete receivers, and qualified imports. Calls through interface
// values, function-typed variables, and function parameters have no
// static callee and produce no edge — analyzers that need to see through
// them compose per-function summary facts instead.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Call is one statically resolved call site.
type Call struct {
	Pos    token.Pos
	Callee *types.Func
}

// Node is one function declared in the package. Calls inside nested
// function literals are attributed to the enclosing declaration: the
// literal shares its lifetime and, on a hot path, its allocation budget.
type Node struct {
	Func  *types.Func
	Decl  *ast.FuncDecl
	Calls []Call
}

// Graph maps every function declared in the package to its outgoing
// static calls.
type Graph struct {
	Nodes map[*types.Func]*Node
}

// Build walks files and records one Node per function declaration. When
// skip is non-nil, subtrees for which it returns true are excluded (used
// by hotalloc to ignore cold regions like deferred recover handlers).
func Build(info *types.Info, files []*ast.File, skip func(ast.Node) bool) *Graph {
	g := &Graph{Nodes: make(map[*types.Func]*Node)}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Func: fn, Decl: fd}
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				if node == nil {
					return false
				}
				if skip != nil && skip(node) {
					return false
				}
				if call, ok := node.(*ast.CallExpr); ok {
					if callee := StaticCallee(info, call); callee != nil {
						n.Calls = append(n.Calls, Call{Pos: call.Lparen, Callee: callee})
					}
				}
				return true
			})
			g.Nodes[fn] = n
		}
	}
	return g
}

// StaticCallee resolves the function a call expression invokes, or nil
// when the callee is dynamic (interface method, function value), a
// conversion, or a builtin.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method call: static only when the receiver is concrete.
			if types.IsInterface(recvType(sel)) {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvType unwraps a method selection's receiver down to its named core.
func recvType(sel *types.Selection) types.Type {
	t := sel.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t
}
