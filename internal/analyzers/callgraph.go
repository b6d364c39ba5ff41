package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
)

// The module-wide call graph underlying the interprocedural summary layer.
// Nodes are declared functions and methods of the analyzed packages; edges
// are static calls (identifier or selector calls that go/types resolves to a
// *types.Func). Calls through function values, interface methods with no
// visible concrete callee, and external packages have no out-edge here — the
// summary layer treats them with explicit conservative defaults instead.
//
// Because Go forbids import cycles, every call cycle (mutual recursion) is
// confined to a single package: cross-package calls follow the import DAG
// strictly downward. ComputeSummaries exploits this — packages are processed
// bottom-up in import order and only intra-package strongly connected
// components need a fixpoint.

// funcID is the canonical, package-qualified identity of a function across
// packages: types.Func.FullName(), e.g. "repro/internal/compute.NewPool" or
// "(*repro/internal/compute.Pool).Claim". Identical for the source-checked
// object and the export-data object an importing package sees, which is what
// makes cross-package summary lookup work.
func funcID(f *types.Func) string { return f.FullName() }

// cgNode is one declared function in the graph.
type cgNode struct {
	id   string
	fn   *types.Func
	decl *ast.FuncDecl
	// callees lists the funcIDs of statically resolved calls anywhere in the
	// body, nested function literals included (a closure's calls happen on
	// behalf of its creator unless spawned via go, which the summary layer
	// separates when it aggregates effects).
	callees []string
}

// callGraph is the per-package slice of the module graph.
type callGraph struct {
	nodes map[string]*cgNode
	order []string // deterministic iteration order (position-sorted)
}

// buildCallGraph collects the declared functions of one loaded package and
// their static call edges.
func buildCallGraph(lp *LoadedPackage) *callGraph {
	g := &callGraph{nodes: map[string]*cgNode{}}
	for _, f := range lp.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := lp.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := &cgNode{id: funcID(obj), fn: obj, decl: fd}
			seen := map[string]bool{}
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(lp.Info, call); callee != nil {
					id := funcID(callee)
					if !seen[id] {
						seen[id] = true
						n.callees = append(n.callees, id)
					}
				}
				return true
			})
			sort.Strings(n.callees)
			g.nodes[n.id] = n
			g.order = append(g.order, n.id)
		}
	}
	sort.Slice(g.order, func(i, j int) bool {
		return g.nodes[g.order[i]].decl.Pos() < g.nodes[g.order[j]].decl.Pos()
	})
	return g
}

// sccs returns the graph's strongly connected components in reverse
// topological order (callees before callers), so a single pass over the
// result with a fixpoint inside each component reaches the global fixpoint.
// Calls that leave the package are not part of this pass.
func (g *callGraph) sccs() [][]*cgNode {
	local := func(id string) []string {
		var out []string
		for _, c := range g.nodes[id].callees {
			if g.nodes[c] != nil {
				out = append(out, c)
			}
		}
		return out
	}
	var out [][]*cgNode
	for _, ids := range tarjan(g.order, local) {
		comp := make([]*cgNode, len(ids))
		for i, id := range ids {
			comp[i] = g.nodes[id]
		}
		out = append(out, comp)
	}
	return out
}

// tarjan returns the strongly connected components of the graph reachable
// from roots (visited in order) along succs. Tarjan's algorithm emits every
// component after all the components it reaches; each lists its members in
// stack-pop order. Both the call graph and the lock-order graph use it.
func tarjan(roots []string, succs func(string) []string) [][]string {
	index := map[string]int{}
	lowlink := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string

	var strongconnect func(u string)
	strongconnect = func(u string) {
		index[u] = len(index)
		lowlink[u] = index[u]
		stack = append(stack, u)
		onStack[u] = true
		for _, v := range succs(u) {
			if _, visited := index[v]; !visited {
				strongconnect(v)
				lowlink[u] = min(lowlink[u], lowlink[v])
			} else if onStack[v] {
				lowlink[u] = min(lowlink[u], index[v])
			}
		}
		if lowlink[u] == index[u] {
			var comp []string
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp = append(comp, top)
				if top == u {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, u := range roots {
		if _, visited := index[u]; !visited {
			strongconnect(u)
		}
	}
	return out
}
