package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// CallGraph is the interprocedural companion to the per-function Graph: a
// FullName-keyed index of every function declaration in the loaded
// packages with its static call edges. It is the promoted form of the
// call index the hotalloc analyzer grew privately — keys are
// types.Func.FullName, not object identity, because each package is
// type-checked in its own universe, so the *types.Func a caller sees
// through an import differs from the one at the callee's definition
// while the full name is stable across both.
//
// Edges are attributed to the enclosing declaration, including call
// sites inside nested function literals and go statements: an edge f→g
// means "g's body can run because f ran", which is the semantics
// fparith's sweep of the //dmmvet:hotpath region needs for
// reachability. Dynamic call sites — calls through function values and
// interface method calls — cannot be traversed and are counted per
// node, so an analyzer can tell a complete picture from a truncated one.
type CallGraph struct {
	// Nodes maps types.Func.FullName to its declaration node. Only
	// functions whose syntax was loaded appear; calls into packages
	// outside the loaded set are edges with no node.
	Nodes map[string]*CallNode

	names []string // sorted keys, for deterministic iteration
}

// CallNode is one function declaration in the graph.
type CallNode struct {
	FullName string
	Fn       *types.Func
	Pkg      *analysis.Package
	Decl     *ast.FuncDecl
	// Callees are the static call edges out of this function, deduped by
	// callee and sorted by callee full name. Edges to functions outside
	// the loaded packages (the standard library) are included; they have
	// no entry in Nodes.
	Callees []CallEdge
	// Dynamic counts call sites that resolve to no static callee: calls
	// through function values and interface method calls.
	Dynamic int
}

// CallEdge is one static call edge.
type CallEdge struct {
	Callee string // types.Func.FullName of the callee
	Pos    token.Pos
}

// BuildCallGraph indexes every function declaration in pkgs and resolves
// its static call edges. Run it over the whole module: with a partial
// package set, in-module callees look external.
func BuildCallGraph(pkgs []*analysis.Package) *CallGraph {
	cg := &CallGraph{Nodes: make(map[string]*CallNode)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cg.Nodes[obj.FullName()] = &CallNode{
					FullName: obj.FullName(),
					Fn:       obj,
					Pkg:      pkg,
					Decl:     fd,
				}
			}
		}
	}
	for _, node := range cg.Nodes {
		if node.Decl.Body != nil {
			collectEdges(node)
		}
	}
	for name := range cg.Nodes {
		cg.names = append(cg.names, name)
	}
	sort.Strings(cg.names)
	return cg
}

// collectEdges resolves every call site in node's body (including inside
// nested function literals) to a static callee where possible.
func collectEdges(node *CallNode) {
	info := node.Pkg.TypesInfo
	seen := make(map[string]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			id = fun.Sel
		case *ast.Ident:
			id = fun
		case *ast.FuncLit:
			return true // immediately-invoked or spawned literal: its body's calls are collected below
		default:
			if tv, ok := info.Types[call.Fun]; !ok || !tv.IsType() {
				node.Dynamic++ // call through a function value
			}
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			sig, _ := obj.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type().Underlying()) {
				node.Dynamic++ // interface dispatch
				return true
			}
			name := obj.FullName()
			if !seen[name] {
				seen[name] = true
				node.Callees = append(node.Callees, CallEdge{Callee: name, Pos: call.Pos()})
			}
		case *types.Var:
			node.Dynamic++ // call through a variable of function type
		case *types.Builtin, *types.TypeName, nil:
			// builtins and conversions are not call edges
		}
		return true
	})
	sort.Slice(node.Callees, func(i, j int) bool {
		return node.Callees[i].Callee < node.Callees[j].Callee
	})
}

// Node returns the declaration node for a full name, or nil.
func (cg *CallGraph) Node(fullName string) *CallNode { return cg.Nodes[fullName] }

// Names returns every declared function's full name in sorted order —
// the deterministic iteration surface.
func (cg *CallGraph) Names() []string { return cg.names }

// Reachable returns the set of declared functions reachable from roots
// (inclusive) over static call edges. Roots with no node are ignored;
// dynamic call sites truncate the walk, which is why nodes carry their
// Dynamic counts.
func (cg *CallGraph) Reachable(roots ...string) map[string]bool {
	seen := make(map[string]bool)
	var queue []string
	for _, r := range roots {
		if cg.Nodes[r] != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		name := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range cg.Nodes[name].Callees {
			if cg.Nodes[e.Callee] != nil && !seen[e.Callee] {
				seen[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return seen
}

// Dump renders the graph one function per line in sorted order —
//
//	repro/internal/par.ForEach -> repro/internal/par.Limit [ext 2] [dyn 1]
//
// listing in-graph callees by name, with external edges and dynamic call
// sites reduced to counts. Stable across runs, for golden tests.
func (cg *CallGraph) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "callgraph (%d functions):\n", len(cg.names))
	for _, name := range cg.names {
		node := cg.Nodes[name]
		var local []string
		ext := 0
		for _, e := range node.Callees {
			if cg.Nodes[e.Callee] != nil {
				local = append(local, e.Callee)
			} else {
				ext++
			}
		}
		fmt.Fprintf(&sb, "  %s", name)
		if len(local) > 0 {
			fmt.Fprintf(&sb, " -> %s", strings.Join(local, ", "))
		}
		if ext > 0 {
			fmt.Fprintf(&sb, " [ext %d]", ext)
		}
		if node.Dynamic > 0 {
			fmt.Fprintf(&sb, " [dyn %d]", node.Dynamic)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
