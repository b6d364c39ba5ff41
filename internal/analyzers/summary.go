package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
)

// The interprocedural summary layer. Every declared function of every
// analyzed package gets a FuncSummary — a conservative abstract of the
// effects a call to it can have — computed bottom-up over the call graph:
// packages in import order (Go's acyclic imports mean cross-package calls
// only ever point at already-summarized packages), and intra-package
// strongly connected components to a fixpoint (all facts are monotone, so
// mutual recursion converges).
//
// The analyzers consume summaries instead of assuming the worst about
// callees: arenapair resolves ownership transferred to a Put-ting helper,
// ctxloop resolves a context observed one call deep (and, conversely,
// catches ctx handed to a callee that provably ignores it), lockhold flags a
// lock held across a call that transitively blocks, goroleak accepts a
// goroutine joined inside its named entry point, and lockorder assembles its
// global acquisition-order graph from the per-function Acquires/OrderEdges.

// FuncSummary is the abstract effect of calling one function. The zero value
// is the "no visible effects" summary; all fields are may-facts (an effect
// on SOME path sets them).
type FuncSummary struct {
	// PutsParams lists parameter indices the function returns to a
	// compute.Arena (directly or via a callee) on some path: passing an
	// owned buffer there transfers ownership out of the caller.
	PutsParams []int
	// EscapesParams lists parameter indices the function stores, returns,
	// sends, or otherwise lets outlive the call.
	EscapesParams []int
	// ObservesCtx reports that the function's context parameter actually
	// reaches a ctx method or a context-observing callee.
	ObservesCtx bool
	// MayBlock reports a possible blocking operation: channel send/receive,
	// default-less select, blocking compute.Pool dispatch, WaitGroup.Wait,
	// Cond.Wait, or a call to a callee that may block.
	MayBlock bool
	// CallsWGDone / ChanOps feed the goroleak join analysis.
	CallsWGDone bool
	ChanOps     bool
	// Acquires lists the canonical lock IDs the function may acquire
	// anywhere inside (transitively through callees), regardless of whether
	// it releases them before returning.
	Acquires []string
	// OrderEdges records lock-acquisition ordering: To was acquired (or a
	// callee acquiring To was called) at File:Line while From was held.
	OrderEdges []LockEdge
}

// LockEdge is one acquisition-order observation for the lockorder analyzer.
type LockEdge struct {
	From string
	To   string
	File string
	Line int
}

// SummaryTable holds every computed summary, keyed by funcID, plus the set
// of module package paths (so analyzers can distinguish "module function
// with no summary" — treat pessimistically — from "external function" —
// trust it).
type SummaryTable struct {
	Funcs   map[string]*FuncSummary
	targets map[string]bool
}

// NewSummaryTable returns an empty table over the given target paths.
func NewSummaryTable(targetPaths []string) *SummaryTable {
	t := &SummaryTable{Funcs: map[string]*FuncSummary{}, targets: map[string]bool{}}
	for _, p := range targetPaths {
		t.targets[p] = true
	}
	return t
}

// lookup returns the summary for f, or nil. Nil-receiver safe so analyzers
// degrade to their intraprocedural behavior without a table.
func (t *SummaryTable) lookup(f *types.Func) *FuncSummary {
	if t == nil || f == nil {
		return nil
	}
	return t.Funcs[funcID(f)]
}

// isTarget reports whether pkgPath is one of the analyzed module packages.
func (t *SummaryTable) isTarget(pkgPath string) bool {
	return t != nil && t.targets[pkgPath]
}

// summaryForCall resolves the summary of a call's static callee, or nil.
func (t *SummaryTable) summaryForCall(info *types.Info, call *ast.CallExpr) *FuncSummary {
	return t.lookup(calleeFunc(info, call))
}

// ComputeSummaries builds the module-wide summary table for pkgs.
func ComputeSummaries(pkgs []*LoadedPackage) *SummaryTable {
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	table := NewSummaryTable(paths)
	for _, lp := range topoOrder(pkgs) {
		computePackageSummaries(lp, table)
	}
	return table
}

// topoOrder sorts target packages callees-first by their import relation
// (lexicographic tie-break for determinism).
func topoOrder(pkgs []*LoadedPackage) []*LoadedPackage {
	byPath := map[string]*LoadedPackage{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var out []*LoadedPackage
	var visit func(p *LoadedPackage)
	visit = func(p *LoadedPackage) {
		if state[p.Path] != 0 {
			return
		}
		state[p.Path] = 1
		deps := append([]string(nil), p.Imports...)
		sort.Strings(deps)
		for _, d := range deps {
			if dp, ok := byPath[d]; ok {
				visit(dp)
			}
		}
		state[p.Path] = 2
		out = append(out, p)
	}
	sorted := append([]*LoadedPackage(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, p := range sorted {
		visit(p)
	}
	return out
}

// computePackageSummaries runs the intra-package SCC fixpoint, writing every
// summary into table.
func computePackageSummaries(lp *LoadedPackage, table *SummaryTable) {
	g := buildCallGraph(lp)
	for _, comp := range g.sccs() {
		for changed, rounds := true, 0; changed && rounds < 64; rounds++ {
			changed = false
			for _, n := range comp {
				s := computeFuncSummary(lp, n.decl, table)
				if !summariesEqual(table.Funcs[n.id], s) {
					table.Funcs[n.id] = s
					changed = true
				}
			}
		}
	}
}

func summariesEqual(a, b *FuncSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.ObservesCtx != b.ObservesCtx || a.MayBlock != b.MayBlock ||
		a.CallsWGDone != b.CallsWGDone || a.ChanOps != b.ChanOps {
		return false
	}
	return slices.Equal(a.PutsParams, b.PutsParams) && slices.Equal(a.EscapesParams, b.EscapesParams) &&
		slices.Equal(a.Acquires, b.Acquires) && slices.Equal(a.OrderEdges, b.OrderEdges)
}

// ---- per-function summary computation --------------------------------------

// computeFuncSummary derives the summary of one declared function against
// the (possibly still converging) table.
func computeFuncSummary(lp *LoadedPackage, decl *ast.FuncDecl, table *SummaryTable) *FuncSummary {
	info := lp.Info
	s := &FuncSummary{}

	paramIdx := map[*types.Var]int{}
	var ctxVars []*types.Var
	if decl.Type.Params != nil {
		i := 0
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					paramIdx[v] = i
					if isContextType(v.Type()) && name.Name != "_" {
						ctxVars = append(ctxVars, v)
					}
				}
				i++
			}
			if len(field.Names) == 0 {
				i++ // unnamed parameter still occupies a position
			}
		}
	}

	puts := map[int]bool{}
	escapes := map[int]bool{}
	acquires := map[string]bool{}

	// A go statement's call, and a function literal it spawns, run on
	// another goroutine: their effects belong to the spawned goroutine
	// (goroleak inspects them directly), not to a call of this function. The
	// walk meets each go statement before its call and literal, so it marks
	// them on the way.
	goCalls := map[ast.Node]bool{}
	spawnedLits := map[*ast.FuncLit]bool{}
	// A select's communications block as the select does, which blockingOp
	// classifies once at the select (not at all when it has a default); the
	// walk meets each select before its clauses, so it marks them on the way.
	commOps := map[ast.Node]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if chanOp(info, n) {
			s.ChanOps = true
		}
		blocks := blockingOp(info, n) != "" && !commOps[n]
		if blocks && !goCalls[n] {
			s.MayBlock = true
		}
		switch e := n.(type) {
		case *ast.FuncLit:
			// A literal's captured params escape. A spawned literal's
			// effects stay with its goroutine (which may outlive the call
			// frame); any other literal runs, if at all, on behalf of this
			// call, so its effects aggregate.
			for v, i := range paramIdx {
				if mentionsVar(info, e.Body, v) {
					escapes[i] = true
				}
			}
			return !spawnedLits[e]
		case *ast.SelectStmt:
			for _, cl := range e.Body.List {
				commOps[commOp(cl.(*ast.CommClause).Comm)] = true
			}
		case *ast.GoStmt:
			goCalls[e.Call] = true
			if lit, ok := ast.Unparen(e.Call.Fun).(*ast.FuncLit); ok {
				spawnedLits[lit] = true
			}
		case *ast.SendStmt:
			if v := identVar(info, e.Value); v != nil {
				if i, ok := paramIdx[v]; ok {
					escapes[i] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				if v := identVar(info, r); v != nil {
					if i, ok := paramIdx[v]; ok {
						escapes[i] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range e.Rhs {
				if v := identVar(info, rhs); v != nil {
					if i, ok := paramIdx[v]; ok {
						escapes[i] = true
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if v := identVar(info, el); v != nil {
					if i, ok := paramIdx[v]; ok {
						escapes[i] = true
					}
				}
			}
		case *ast.CallExpr:
			if !blocks {
				summarizeCall(lp, s, e, goCalls[e], paramIdx, puts, escapes, acquires, table)
			}
		}
		return true
	})

	// Context observation: any ctx parameter that reaches a ctx method or an
	// observing callee.
	for _, cv := range ctxVars {
		if ctxObservedIn(info, table, decl.Body, cv) {
			s.ObservesCtx = true
			break
		}
	}

	s.PutsParams = slices.Sorted(maps.Keys(puts))
	s.EscapesParams = slices.Sorted(maps.Keys(escapes))
	s.Acquires = slices.Sorted(maps.Keys(acquires))
	s.OrderEdges = lockOrderEdges(lp, decl, table)
	return s
}

// summarizeCall folds one call expression that is not itself a blocking op
// into the summary under construction. isGo marks the immediate call of a go
// statement, whose blocking/joining effects belong to the spawned goroutine
// instead.
func summarizeCall(lp *LoadedPackage, s *FuncSummary, call *ast.CallExpr, isGo bool,
	paramIdx map[*types.Var]int, puts, escapes map[int]bool, acquires map[string]bool, table *SummaryTable) {
	info := lp.Info

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				for _, a := range call.Args[1:] {
					if v := identVar(info, a); v != nil {
						if i, ok := paramIdx[v]; ok {
							escapes[i] = true
						}
					}
				}
			}
			return
		}
	}

	switch {
	case isArenaCall(info, call, "Put"):
		for _, a := range call.Args {
			if v := identVar(info, a); v != nil {
				if i, ok := paramIdx[v]; ok {
					puts[i] = true
				}
			}
		}
		return
	case isMutexCall(info, call, "Lock", "RLock"):
		if recv := mutexRecvExpr(call); recv != nil {
			acquires[lockID(info, lp.Path, recv)] = true
		}
		return
	case isSyncMethod(info, call, "WaitGroup", "Done"):
		s.CallsWGDone = true
		return
	}

	callee := calleeFunc(info, call)
	if callee == nil {
		return
	}
	if isGo {
		// The callee runs on a fresh goroutine: nothing it does blocks,
		// joins, or orders locks on behalf of a call of THIS function, but
		// any of our parameters handed to it outlive the call frame.
		for _, a := range call.Args {
			if v := identVar(info, a); v != nil {
				if i, ok := paramIdx[v]; ok {
					escapes[i] = true
				}
			}
		}
		return
	}
	cs := table.lookup(callee)
	if cs == nil {
		return
	}
	s.MayBlock = s.MayBlock || cs.MayBlock
	s.ChanOps = s.ChanOps || cs.ChanOps
	s.CallsWGDone = s.CallsWGDone || cs.CallsWGDone
	for _, l := range cs.Acquires {
		acquires[l] = true
	}
	sig, _ := callee.Type().(*types.Signature)
	for ai, a := range call.Args {
		v := identVar(info, a)
		if v == nil {
			continue
		}
		i, isParam := paramIdx[v]
		if !isParam {
			continue
		}
		pi := calleeParamIndex(sig, ai)
		if pi < 0 {
			continue
		}
		if slices.Contains(cs.PutsParams, pi) {
			puts[i] = true
		}
		if slices.Contains(cs.EscapesParams, pi) {
			escapes[i] = true
		}
	}
}

// calleeParamIndex maps an argument position to the callee's parameter
// index, folding variadic tails onto the variadic parameter.
func calleeParamIndex(sig *types.Signature, argIdx int) int {
	if sig == nil {
		return -1
	}
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	if sig.Variadic() && argIdx >= n-1 {
		return n - 1
	}
	if argIdx >= n {
		return -1
	}
	return argIdx
}

// ctxObservedIn reports whether a use of ctxVar inside body counts as
// observing the context: a method call on it (ctx.Err, ctx.Done, ...), any
// use other than a bare call argument (conservative), passing it to an
// external callee (trusted to honor it), or passing it to a module callee
// whose summary observes its own context. Only "handed exclusively to module
// callees that provably ignore it" fails.
func ctxObservedIn(info *types.Info, table *SummaryTable, body ast.Node, ctxVar *types.Var) bool {
	ignoredArg := map[*ast.Ident]bool{}
	observed := false
	ast.Inspect(body, func(n ast.Node) bool {
		if observed {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == ctxVar {
				observed = true // ctx.Err(), ctx.Done(), ctx.Value(), ...
				return false
			}
		}
		for _, a := range call.Args {
			id, ok := ast.Unparen(a).(*ast.Ident)
			if !ok || info.Uses[id] != ctxVar {
				continue
			}
			callee := calleeFunc(info, call)
			if callee == nil {
				observed = true // call through a function value: trust it
				continue
			}
			if cs := table.lookup(callee); cs != nil {
				if cs.ObservesCtx {
					observed = true
				} else {
					ignoredArg[id] = true
				}
			} else if callee.Pkg() != nil && table.isTarget(callee.Pkg().Path()) {
				ignoredArg[id] = true // module function, provably (so far) ignores
			} else {
				observed = true // external callee: trust it
			}
		}
		return true
	})
	if observed {
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if observed {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == ctxVar && !ignoredArg[id] {
			observed = true
		}
		return true
	})
	return observed
}

// lockOrderEdges runs the held-lock pass over the function's body (and over
// each literal in it not called on the spot, with an empty entry set)
// emitting From→To edges whenever a lock is acquired — or a lock-acquiring
// callee is entered — while another is held.
func lockOrderEdges(lp *LoadedPackage, decl *ast.FuncDecl, table *SummaryTable) []LockEdge {
	var edges []LockEdge
	seen := map[LockEdge]bool{}
	emit := func(from, to string, at token.Pos) {
		if from == to {
			return // re-acquisition of the same abstract lock is lockhold's business
		}
		p := lp.Fset.Position(at)
		e := LockEdge{From: from, To: to, File: p.Filename, Line: p.Line}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	// The declaration body, then every function literal inside it that is
	// not called on the spot (those run inline with their caller) as its own
	// unit (empty entry held set — consistent with lockhold): a spawned
	// goroutine's internal acquisition order is exactly the kind of edge a
	// cross-goroutine deadlock is made of.
	lockEdgesForBody(lp, decl.Body, table, emit)
	called := calledLits(decl.Body)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && !called[lit] {
			lockEdgesForBody(lp, lit.Body, table, emit)
		}
		return true
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		if edges[i].File != edges[j].File {
			return edges[i].File < edges[j].File
		}
		return edges[i].Line < edges[j].Line
	})
	return edges
}

// lockEdgesForBody runs the held-lock pass over one body for
// lockOrderEdges: every acquisition, and every call of a callee that
// acquires, is ordered after each lock held there.
func lockEdgesForBody(lp *LoadedPackage, body *ast.BlockStmt, table *SummaryTable, emit func(from, to string, at token.Pos)) {
	heldLocks(lp.Info, lp.Path, body, heldSet{}, func(_ *cfgNode, x ast.Node, held heldSet) {
		call, ok := x.(*ast.CallExpr)
		if !ok || len(held) == 0 {
			return
		}
		var tos []string
		if recv := mutexRecvExpr(call); recv != nil && isMutexCall(lp.Info, call, "Lock", "RLock") {
			tos = []string{lockID(lp.Info, lp.Path, recv)}
		} else if cs := table.summaryForCall(lp.Info, call); cs != nil {
			tos = cs.Acquires
		}
		// From and To are both canonical lockIDs, or cycles would never
		// close.
		froms := map[string]bool{}
		for _, l := range held {
			froms[l.id] = true
		}
		for _, from := range slices.Sorted(maps.Keys(froms)) {
			for _, to := range tos {
				emit(from, to, call.Pos())
			}
		}
	})
}

// lockID canonicalizes the receiver expression of a Lock call into a global,
// serialization-stable identity:
//
//	e.mu.Lock()   where e is *repro.Engine  →  "repro.Engine.mu"
//	globalMu.Lock()  (package-level var)    →  "repro/internal/x.globalMu"
//	mu.Lock()        (function-local var)   →  "repro/internal/x.local.mu"
//
// Instances of the same field are deliberately conflated — standard for
// static lock-order analysis, and exactly the granularity the deadlock
// argument needs (two instances of the same class locked in both orders IS a
// lock-order bug under this abstraction).
func lockID(info *types.Info, pkgPath string, recv ast.Expr) string {
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		// Qualified package-level var (otherpkg.Mu): same identity that
		// package's own bare-ident uses get, or cross-package cycles never
		// close.
		if id, ok := x.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() + "." + x.Sel.Name
			}
		}
		if t := info.TypeOf(x.X); t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + x.Sel.Name
			}
		}
		return pkgPath + "." + exprKey(x)
	case *ast.Ident:
		obj := exprObject(info, x)
		if obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name() // package-level lock
			}
			return obj.Pkg().Path() + ".local." + obj.Name()
		}
		return pkgPath + ".local." + x.Name
	case *ast.StarExpr:
		return lockID(info, pkgPath, x.X)
	}
	return pkgPath + "." + exprKey(recv)
}
