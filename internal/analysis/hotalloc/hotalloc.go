// Package hotalloc statically enforces the solver's zero-alloc step
// budget: every function reachable from a `//dmmvet:hotpath` root —
// circuit.(*IMEXStepper).Step, la.(*SparseLU).Refactor/SolveInto, the
// internal/obs per-step instruments — must contain no allocating
// operation on its steady-state paths. The 123 µs/step, 0 allocs/op
// baseline of the IMEX benchmark is protected by tests at runtime; this
// analyzer is the static half, so a stray append or interface boxing is
// a CI failure, not a benchmark regression someone has to notice.
//
// Mechanics:
//
//   - Roots are function declarations whose doc comment carries a
//     `//dmmvet:hotpath` line. The call graph is computed from static
//     call edges (resolved through go/types); dynamic dispatch —
//     interface method calls, calls through function values — cannot be
//     traversed and is therefore itself reported on hot paths.
//   - A `//dmmvet:coldpath — <justification>` doc line stops traversal:
//     the function runs off the per-step path (amortized refactorization,
//     one-time setup) and may allocate. The justification is mandatory
//     and machine-checked, like //dmmvet:allow.
//   - Per function, allocations are classified by the conservative
//     internal/analysis/cfg escape classifier, and two path prunings
//     apply on the function's CFG: branches whose condition is a typed
//     constant false (build-tag gates like invariant.Enabled) are
//     unreachable, and failure-unwinding blocks — every path ends in a
//     `return …, err` with a syntactically non-nil error, or a panic —
//     are cold, because taking one ends the run. A tail `return x, err`
//     with err == nil at runtime is the documented unsound corner of
//     that pruning.
//   - Calls into packages without loaded syntax (the standard library)
//     are checked against an allowlist of packages known not to allocate
//     (math, math/bits, sync/atomic), then against a per-function
//     allowlist for packages that are not wholesale clean (time.Now and
//     time.Since — the monotonic clock reads the span profiler's laps
//     are built on); anything else is reported, so the analyzer is
//     complete over what it cannot see. Run it over ./... — a partial
//     package set makes in-repo callees look external.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid allocating operations in functions reachable from //dmmvet:hotpath roots " +
		"(the zero-alloc IMEX step budget); //dmmvet:coldpath — <why> exempts amortized work",
	RunModule: run,
}

// cleanPkgs are external packages whose functions are trusted not to
// allocate on any path the hot loops use.
var cleanPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// cleanFuncs are individual external functions trusted not to allocate
// even though their package is not wholesale clean. time.Now/time.Since
// are the monotonic clock reads behind the obs span profiler's per-phase
// laps: both return by value and touch no heap.
var cleanFuncs = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
}

// Both directives are anchored to the comment start (Go directive
// style) so doc prose mentioning them is not parsed as an annotation.
var coldRe = regexp.MustCompile(`^//dmmvet:coldpath\s*(.*)$`)

var hotRe = regexp.MustCompile(`^//dmmvet:hotpath\b`)

func run(mp *analysis.ModulePass) error {
	// The FullName-keyed declaration index is the shared cfg.CallGraph
	// (it started life here and was promoted for sharing with
	// fparith). hotalloc keeps its own call-site walk below — it needs
	// to report dynamic, interface, and external calls at their exact
	// positions, which the graph's deduped edges deliberately discard —
	// but declaration lookup goes through the graph.
	cg := cfg.BuildCallGraph(mp.Pkgs)
	cold := make(map[string]bool)
	var roots []*types.Func
	for _, name := range cg.Names() {
		node := cg.Node(name)
		fd := node.Decl
		if fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if hotRe.MatchString(c.Text) {
				roots = append(roots, node.Fn)
			}
			if m := coldRe.FindStringSubmatch(c.Text); m != nil {
				just := strings.TrimSpace(m[1])
				just = strings.TrimSpace(strings.TrimLeft(just, "—–- \t"))
				if just == "" {
					mp.Reportf(node.Pkg, fd.Name.Pos(),
						"//dmmvet:coldpath on %s has no justification; write `//dmmvet:coldpath — <why this stays off the per-step path>`",
						fd.Name.Name)
					continue
				}
				cold[name] = true
			}
		}
	}

	// Deterministic traversal order: roots sorted by package, then
	// source position, so "reachable from X" labels never flap.
	sort.Slice(roots, func(i, j int) bool {
		a, b := cg.Node(roots[i].FullName()), cg.Node(roots[j].FullName())
		if a.Pkg.ImportPath != b.Pkg.ImportPath {
			return a.Pkg.ImportPath < b.Pkg.ImportPath
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})

	w := &walker{mp: mp, cg: cg, cold: cold, visited: make(map[string]bool)}
	for _, root := range roots {
		w.visit(root, funcLabel(root))
	}
	return nil
}

type walker struct {
	mp      *analysis.ModulePass
	cg      *cfg.CallGraph
	cold    map[string]bool
	visited map[string]bool
}

// visit checks fn's body and recurses into its static callees. root
// labels which hot-path root pulled fn into the checked set.
func (w *walker) visit(fn *types.Func, root string) {
	if w.visited[fn.FullName()] {
		return
	}
	w.visited[fn.FullName()] = true
	node := w.cg.Node(fn.FullName())
	if node == nil || node.Decl.Body == nil {
		return
	}
	pkg := node.Pkg
	sig, _ := fn.Type().(*types.Signature)

	g := cfg.New(fn.Name(), node.Decl.Body, pkg.TypesInfo)
	coldBlocks := g.ColdBlocks(pkg.TypesInfo, sig)
	reachable := reachableBlocks(g)

	for _, blk := range g.Blocks {
		if !reachable[blk] || coldBlocks[blk] {
			continue
		}
		for _, n := range blk.Nodes {
			if _, isRange := n.(*ast.RangeStmt); isRange {
				continue // only the key/value binding; operand and body live in other blocks
			}
			for _, a := range cfg.Allocs(pkg.TypesInfo, n) {
				w.mp.Reportf(pkg, a.Pos, "allocation on hot path (reachable from %s): %s", root, a.What)
			}
			w.calls(pkg, n, root)
		}
	}
}

// calls resolves and follows every call in the node subtree.
func (w *walker) calls(pkg *analysis.Package, n ast.Node, root string) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // creating the closure is classified; its body runs only if called
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.call(pkg, call, root)
		return true
	})
}

func (w *walker) call(pkg *analysis.Package, call *ast.CallExpr, root string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		if tv, ok := pkg.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return // conversion, handled by the classifier
		}
		w.mp.Reportf(pkg, call.Pos(),
			"dynamic call through a function value on hot path (reachable from %s): cannot prove allocation-free", root)
		return
	}
	obj := pkg.TypesInfo.Uses[id]
	switch obj := obj.(type) {
	case *types.Builtin, *types.TypeName:
		return // builtins handled by the classifier; conversions are not calls
	case *types.Func:
		sig, _ := obj.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type().Underlying()) {
			w.mp.Reportf(pkg, call.Pos(),
				"interface method call %s on hot path (reachable from %s): dynamic dispatch cannot be proven allocation-free", funcLabel(obj), root)
			return
		}
		if w.cold[obj.FullName()] {
			return // justified //dmmvet:coldpath boundary
		}
		if w.cg.Node(obj.FullName()) != nil {
			w.visit(obj, root)
			return
		}
		// No syntax for the callee: external package.
		pkgPath := ""
		if obj.Pkg() != nil {
			pkgPath = obj.Pkg().Path()
		}
		if cleanPkgs[pkgPath] || cleanFuncs[obj.FullName()] {
			return
		}
		w.mp.Reportf(pkg, call.Pos(),
			"call to %s on hot path (reachable from %s) is not known allocation-free", funcLabel(obj), root)
	case *types.Var:
		w.mp.Reportf(pkg, call.Pos(),
			"dynamic call through %s on hot path (reachable from %s): cannot prove allocation-free", obj.Name(), root)
	case nil:
		// Unresolved (should not happen in a type-checked package).
	}
}

// reachableBlocks returns the blocks reachable from the entry — constant
// false branches (pruned during CFG construction) leave their arms
// unlinked, and those must not be scanned.
func reachableBlocks(g *cfg.Graph) map[*cfg.Block]bool {
	seen := map[*cfg.Block]bool{g.Entry: true}
	queue := []*cfg.Block{g.Entry}
	for len(queue) > 0 {
		blk := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return seen
}

func funcLabel(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		return fmt.Sprintf("(%s).%s", types.TypeString(t, types.RelativeTo(fn.Pkg())), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
