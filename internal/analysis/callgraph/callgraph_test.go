package callgraph_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"durassd/internal/analysis/callgraph"
)

const src = `package p

type T struct{}

func (t *T) M() { helper() }

type I interface{ M() }

func helper() {}

func root(t *T, i I, f func()) {
	t.M()      // static: concrete method
	i.M()      // dynamic: interface method, no edge
	f()        // dynamic: function value, no edge
	helper()   // static: package function
	_ = len("") // builtin, no edge
	defer cleanup()
}

func cleanup() { helper() }
`

func load(t *testing.T) (*types.Info, []*ast.File, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Types:      make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return info, []*ast.File{f}, pkg
}

func fn(t *testing.T, pkg *types.Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("no object %s", name)
	}
	return obj.(*types.Func)
}

// TestBuild: static callees become edges, dynamic ones (interface
// methods, function values, builtins) do not, and skip prunes subtrees.
func TestBuild(t *testing.T) {
	info, files, pkg := load(t)
	g := callgraph.Build(info, files, nil)

	root := fn(t, pkg, "root")
	n := g.Nodes[root]
	if n == nil {
		t.Fatal("root has no node")
	}
	var callees []string
	for _, c := range n.Calls {
		callees = append(callees, c.Callee.Name())
		if !c.Pos.IsValid() {
			t.Errorf("call to %s has no position", c.Callee.Name())
		}
	}
	want := []string{"M", "helper", "cleanup"}
	if len(callees) != len(want) {
		t.Fatalf("root callees = %v, want %v", callees, want)
	}
	for i := range want {
		if callees[i] != want[i] {
			t.Errorf("callee %d = %s, want %s", i, callees[i], want[i])
		}
	}

	// Skipping defer statements removes the cleanup edge.
	pruned := callgraph.Build(info, files, func(n ast.Node) bool {
		_, isDefer := n.(*ast.DeferStmt)
		return isDefer
	})
	for _, c := range pruned.Nodes[root].Calls {
		if c.Callee.Name() == "cleanup" {
			t.Error("skip did not prune the deferred call")
		}
	}
}
