package analyzers

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// AnalyzerLockOrder assembles the module-wide lock-acquisition-order graph
// from the interprocedural summaries — an edge A→B means somewhere in the
// analyzed tree lock B is acquired (directly, or by entering a callee that
// acquires it) while A is held — and reports every cycle. Two goroutines
// walking a cycle from different entry points can each hold one lock while
// waiting for the other's: a deadlock that no test reproduces reliably and
// no intraprocedural shape check can see, because each function's local
// order is innocent.
//
// Lock identity is the canonical ID of summary.go's lockID: instances of the
// same struct field are conflated ("repro.Engine.mu"), which is exactly the
// granularity the deadlock argument needs. A cycle is reported once, at its
// canonical witness edge (the lexicographically smallest), by the package
// that owns that edge's file — so a cross-package cycle still yields exactly
// one finding per lint run.
var AnalyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the module-wide lock-acquisition-order graph must be acyclic (a cycle is a potential deadlock)",
	Run:  runLockOrder,
}

// lockPair keys the global edge graph by (from, to) lock ID.
type lockPair struct{ from, to string }

func runLockOrder(pass *Pass) {
	table := pass.Summaries
	if table == nil {
		return // the order graph only exists interprocedurally
	}

	// Collect the global edge set. Per (from,to) pair keep the smallest
	// (file,line) witness so reporting is deterministic regardless of map
	// iteration order.
	witness := map[lockPair]LockEdge{}
	adj := map[string][]string{}
	adjSeen := map[lockPair]bool{}
	for _, s := range table.Funcs {
		for _, e := range s.OrderEdges {
			p := lockPair{e.From, e.To}
			if w, ok := witness[p]; !ok || e.File < w.File || (e.File == w.File && e.Line < w.Line) {
				witness[p] = e
			}
			if !adjSeen[p] {
				adjSeen[p] = true
				adj[e.From] = append(adj[e.From], e.To)
			}
		}
	}
	if len(adj) == 0 {
		return
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		sort.Strings(adj[n])
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	for _, scc := range tarjan(nodes, func(u string) []string { return adj[u] }) {
		if len(scc) < 2 {
			continue // self-edges are never emitted, so a singleton is acyclic
		}
		sort.Strings(scc)
		reportLockCycle(pass, scc, adj, witness)
	}
}

// reportLockCycle reconstructs one concrete cycle through the SCC's smallest
// lock ID and reports it at the cycle's first witness edge — but only when
// this pass's package owns that edge's file, so the finding lands exactly
// once per lint run.
func reportLockCycle(pass *Pass, scc []string, adj map[string][]string, witness map[lockPair]LockEdge) {
	inSCC := map[string]bool{}
	for _, n := range scc {
		inSCC[n] = true
	}
	start := scc[0] // sorted: the smallest lock ID anchors the cycle
	cycle := cycleThrough(start, inSCC, adj)
	if cycle == nil {
		return
	}

	firstEdge, ok := witness[lockPair{cycle[0], cycle[1]}]
	if !ok {
		return
	}
	pos, owned := posForFileLine(pass, firstEdge.File, firstEdge.Line)
	if !owned {
		return // another target package owns the canonical edge and reports it
	}

	var hops []string
	for i := 0; i+1 < len(cycle); i++ {
		e := witness[lockPair{cycle[i], cycle[i+1]}]
		hops = append(hops, fmt.Sprintf("%s acquired at %s:%d while %s held", e.To, filepath.Base(e.File), e.Line, e.From))
	}
	pass.Reportf("lockorder", pos,
		"lock-order cycle %s: %s — two goroutines entering from different points can each hold one lock while waiting for the other (impose a single global acquisition order)",
		strings.Join(cycle, " → "), strings.Join(hops, "; "))
}

// cycleThrough finds a concrete cycle start → ... → start inside the SCC via
// BFS (shortest, deterministic with sorted adjacency); nil if none closes.
func cycleThrough(start string, inSCC map[string]bool, adj map[string][]string) []string {
	parent := map[string]string{}
	queue := []string{}
	for _, v := range adj[start] {
		if !inSCC[v] {
			continue
		}
		if v == start {
			continue // self-edges never emitted
		}
		if _, seen := parent[v]; !seen {
			parent[v] = start
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if v == start {
				// Close the cycle: collect start→…→u from the parent chain.
				rev := []string{u}
				for p := u; parent[p] != start; p = parent[p] {
					rev = append(rev, parent[p])
				}
				out := []string{start}
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return append(out, start)
			}
			if !inSCC[v] {
				continue
			}
			if _, seen := parent[v]; !seen {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return nil
}

// posForFileLine resolves a summary edge's file:line back to a token.Pos when
// the file belongs to this pass's package (summaries carry file and line,
// not positions — token.File.LineStart reconstructs one).
func posForFileLine(pass *Pass, file string, line int) (token.Pos, bool) {
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil || tf.Name() != file {
			continue
		}
		if line < 1 || line > tf.LineCount() {
			return f.Pos(), true
		}
		return tf.LineStart(line), true
	}
	return token.NoPos, false
}
