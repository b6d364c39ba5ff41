package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
)

// AnalyzerArenaPair checks, intraprocedurally on the CFG, that every scratch
// matrix obtained from compute.Arena.Get / GetUninit reaches a matching
// Arena.Put on every path out of the function — early returns and panics
// included (a deferred Put covers all exits) — and that no buffer is Put
// twice. Leaked arena buffers silently fall back to garbage-collected
// allocation, eroding the allocation-free hot-loop contract the benchmarks
// budget; double Puts alias the same backing array to two future Gets.
//
// Ownership transfers end tracking without a finding: returning the buffer,
// storing it into a field, slice, map, or another variable, sending it on a
// channel, or capturing it in a closure all hand responsibility elsewhere.
// Passing the buffer as an ordinary call argument is treated as use, not
// transfer — unless the interprocedural summary of the callee says otherwise:
// a callee that Puts its parameter releases the buffer (and reaching it with
// an already-released buffer is a double Put), and a callee that stores its
// parameter escapes it. Functions containing goto are skipped.
var AnalyzerArenaPair = &Analyzer{
	Name: "arenapair",
	Doc:  "every compute.Arena Get must reach exactly one Put on all paths out of the function",
	Run:  runArenaPair,
}

// absState is the per-variable ownership lattice.
type absState uint8

const (
	absUnknown  absState = iota // untracked / not yet obtained
	absOwned                    // holds a live arena buffer
	absReleased                 // definitely returned to the arena
	absMaybe                    // owned on some paths only (merge of Owned and not)
	absEscaped                  // ownership transferred elsewhere; stop tracking
)

func mergeAbs(a, b absState) absState {
	if a == b {
		return a
	}
	if a == absEscaped || b == absEscaped {
		return absEscaped
	}
	if a == absOwned || b == absOwned || a == absMaybe || b == absMaybe {
		return absMaybe
	}
	// Released vs Unknown: no live buffer either way.
	return absReleased
}

func runArenaPair(pass *Pass) {
	forEachFunc(pass.Files, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		analyzeArenaFunc(pass, body)
	})
}

// arenaVar is one tracked Get result.
type arenaVar struct {
	v      *types.Var
	getPos ast.Node
}

func analyzeArenaFunc(pass *Pass, body *ast.BlockStmt) {
	// Fast pre-scan: nothing to do without a Get in this function body
	// (FuncLit bodies are separate units).
	hasGet := false
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isArenaCall(pass.Info, call, "Get", "GetUninit") {
			hasGet = true
		}
		return !hasGet
	})
	if !hasGet {
		return
	}

	g := buildCFG(body)
	if g.hasGoto {
		return
	}

	// Collect tracked variables: plain identifiers assigned directly from a
	// Get call in this body.
	tracked := map[*types.Var]*arenaVar{}
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Rhs) != 1 || len(a.Lhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
		if !ok || !isArenaCall(pass.Info, call, "Get", "GetUninit") {
			return true
		}
		id, ok := ast.Unparen(a.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		v := varObj(pass.Info, id)
		if v != nil {
			tracked[v] = &arenaVar{v: v, getPos: call}
		}
		return true
	})
	if len(tracked) == 0 {
		// Gets whose results are used directly (returned, passed, stored)
		// transfer ownership immediately; nothing to track.
		return
	}

	// Deferred Puts cover every exit; resolve them up front.
	deferPut := map[*types.Var]bool{}
	for _, d := range g.defers {
		collectPutArgs(pass.Info, d.Call, tracked, func(v *types.Var) { deferPut[v] = true })
		// defer release(arena, x) — a helper whose summary Puts its parameter
		// counts the same as a direct deferred Put.
		forSummaryPutArgs(pass, d.Call, tracked, func(v *types.Var) { deferPut[v] = true })
		// defer func() { arena.Put(x) }() — closure-wrapped deferred Put.
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					collectPutArgs(pass.Info, call, tracked, func(v *types.Var) { deferPut[v] = true })
					forSummaryPutArgs(pass, call, tracked, func(v *types.Var) { deferPut[v] = true })
				}
				return true
			})
		}
	}

	type stateMap map[*types.Var]absState
	var doublePuts []Diagnostic
	leakExit := map[*types.Var]ast.Node{} // first exit node that leaks the var
	reassigned := map[*types.Var]bool{}

	transfer := func(n *cfgNode, st stateMap, record bool) stateMap {
		// Deferred Puts execute at function exit, not at the defer statement;
		// they are modeled by the deferPut set (a Get covered by a deferred
		// Put starts out Released), so the defer node itself has no effect —
		// processing its Put here would misread that Released state as a
		// double Put.
		if _, isDefer := n.stmt.(*ast.DeferStmt); isDefer {
			return st
		}
		for _, part := range n.nodeParts() {
			inspectSkippingFuncLits(part, func(x ast.Node) bool {
				switch e := x.(type) {
				case *ast.CallExpr:
					if isArenaCall(pass.Info, e, "Put") {
						collectPutArgs(pass.Info, e, tracked, func(v *types.Var) {
							if st[v] == absReleased && record && !reassigned[v] {
								doublePuts = append(doublePuts, Diagnostic{
									Pos:      e.Pos(),
									Analyzer: "arenapair",
									Message:  fmt.Sprintf("arena buffer %s is already returned to the arena on every path reaching this Put (double Put aliases its backing array)", v.Name()),
								})
							}
							if st[v] != absEscaped {
								st[v] = absReleased
							}
						})
					} else {
						// Interprocedural ownership transfer: a callee whose
						// summary Puts the parameter releases the buffer here;
						// one that stores it escapes it.
						forSummaryPutArgs(pass, e, tracked, func(v *types.Var) {
							if st[v] == absReleased && record && !reassigned[v] {
								doublePuts = append(doublePuts, Diagnostic{
									Pos:      e.Pos(),
									Analyzer: "arenapair",
									Message:  fmt.Sprintf("arena buffer %s is already returned to the arena on every path reaching this call, and the callee Puts it again (double Put aliases its backing array)", v.Name()),
								})
							}
							if st[v] != absEscaped {
								st[v] = absReleased
							}
						})
						forSummaryEscapeArgs(pass, e, tracked, func(v *types.Var) {
							if st[v] == absOwned || st[v] == absMaybe {
								st[v] = absEscaped
							}
						})
					}
				case *ast.FuncLit:
					// Capture by a closure transfers ownership out of this
					// analysis' scope.
					for v := range tracked {
						if (st[v] == absOwned || st[v] == absMaybe) && mentionsVar(pass.Info, e.Body, v) {
							st[v] = absEscaped
						}
					}
					return false
				}
				return true
			})
		}
		// Escapes and Get-assignments at statement granularity.
		switch s := n.stmt.(type) {
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 && len(s.Lhs) == 1 {
				if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && isArenaCall(pass.Info, call, "Get", "GetUninit") {
					if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
						if v := varObj(pass.Info, id); v != nil && tracked[v] != nil {
							if st[v] == absOwned && record {
								reassigned[v] = true
								doublePuts = append(doublePuts, Diagnostic{
									Pos:      call.Pos(),
									Analyzer: "arenapair",
									Message:  fmt.Sprintf("arena buffer %s reassigned from a new Get while the previous buffer was never Put (the old buffer leaks)", v.Name()),
								})
							}
							if deferPut[v] {
								st[v] = absReleased
							} else {
								st[v] = absOwned
							}
							return st
						}
					}
				}
			}
			// x stored somewhere, aliased, or overwritten: escapes / ends.
			for _, rhs := range s.Rhs {
				if v := identVar(pass.Info, rhs); v != nil && tracked[v] != nil {
					// Aliasing (y := x) or storing (s.f = x, m[k] = x).
					if st[v] == absOwned || st[v] == absMaybe {
						st[v] = absEscaped
					}
				}
			}
			for _, lhs := range s.Lhs {
				if v := identVar(pass.Info, lhs); v != nil && tracked[v] != nil {
					// Overwritten by a non-Get value: stop tracking.
					if st[v] == absOwned || st[v] == absMaybe {
						st[v] = absEscaped
					}
				}
			}
		case *ast.ReturnStmt:
			// Only returning the buffer ITSELF transfers ownership; a buffer
			// passed as an argument inside the return expression (return
			// sum(buf)) is ordinary use.
			for _, r := range s.Results {
				escapeIfDirect(pass.Info, r, tracked, st)
			}
		case *ast.SendStmt:
			escapeIfDirect(pass.Info, s.Value, tracked, st)
		case *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt:
			// Ordinary calls are use, not transfer — except append/composite
			// literals inside them, handled below.
		}
		for _, part := range n.nodeParts() {
			inspectSkippingFuncLits(part, func(x ast.Node) bool {
				switch e := x.(type) {
				case *ast.CompositeLit:
					for _, el := range e.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							el = kv.Value
						}
						escapeIfDirect(pass.Info, el, tracked, st)
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
						for _, a := range e.Args[1:] {
							escapeIfDirect(pass.Info, a, tracked, st)
						}
					}
				}
				return true
			})
		}
		return st
	}

	in := forwardMay(g, stateMap{}, func(n *cfgNode, st stateMap) stateMap { return transfer(n, st, false) },
		func(dst, src stateMap) bool {
			changed := false
			for v := range tracked {
				if m := mergeAbs(dst[v], src[v]); m != dst[v] {
					dst[v] = m
					changed = true
				}
			}
			return changed
		})

	// Reporting pass: re-run transfers with recording on, now that incoming
	// states are stable, and check exits.
	for _, n := range g.nodes {
		if in[n.index] == nil {
			continue // unreachable
		}
		out := transfer(n, in[n.index], true)
		if n.exit {
			for v, av := range tracked {
				if deferPut[v] {
					continue
				}
				if out[v] == absOwned || out[v] == absMaybe {
					if _, seen := leakExit[v]; !seen {
						leakExit[v] = exitNodeFor(n, av)
					}
				}
			}
		}
	}

	for v, av := range tracked {
		if site, ok := leakExit[v]; ok {
			pass.Reportf("arenapair", av.getPos.Pos(),
				"arena buffer %s is not returned to the arena on every path out of the function (leaks at line %d); Put it on all paths or defer the Put",
				v.Name(), pass.Fset.Position(site.Pos()).Line)
		}
	}
	for _, d := range doublePuts {
		pass.Report(d)
	}
}

func exitNodeFor(n *cfgNode, av *arenaVar) ast.Node {
	if n.stmt != nil {
		return n.stmt
	}
	return av.getPos
}

// isArenaCall reports a method call on compute.Arena with one of names.
func isArenaCall(info *types.Info, call *ast.CallExpr, names ...string) bool {
	return isMethodOn(info, call, "compute", "Arena", names...)
}

// forSummaryPutArgs invokes fn for each tracked variable passed at a
// parameter position the call's resolved callee summary lists in PutsParams.
func forSummaryPutArgs(pass *Pass, call *ast.CallExpr, tracked map[*types.Var]*arenaVar, fn func(*types.Var)) {
	forSummaryArgs(pass, call, tracked, func(cs *FuncSummary) []int { return cs.PutsParams }, fn)
}

// forSummaryEscapeArgs is forSummaryPutArgs for EscapesParams.
func forSummaryEscapeArgs(pass *Pass, call *ast.CallExpr, tracked map[*types.Var]*arenaVar, fn func(*types.Var)) {
	forSummaryArgs(pass, call, tracked, func(cs *FuncSummary) []int { return cs.EscapesParams }, fn)
}

func forSummaryArgs(pass *Pass, call *ast.CallExpr, tracked map[*types.Var]*arenaVar, pick func(*FuncSummary) []int, fn func(*types.Var)) {
	cs := pass.Summaries.summaryForCall(pass.Info, call)
	if cs == nil {
		return
	}
	idxs := pick(cs)
	if len(idxs) == 0 {
		return
	}
	sig, _ := calleeFunc(pass.Info, call).Type().(*types.Signature)
	for ai, a := range call.Args {
		v := identVar(pass.Info, a)
		if v == nil || tracked[v] == nil {
			continue
		}
		if pi := calleeParamIndex(sig, ai); pi >= 0 && slices.Contains(idxs, pi) {
			fn(v)
		}
	}
}

// collectPutArgs invokes fn for each tracked variable passed to an Arena.Put.
func collectPutArgs(info *types.Info, call *ast.CallExpr, tracked map[*types.Var]*arenaVar, fn func(*types.Var)) {
	if !isArenaCall(info, call, "Put") {
		return
	}
	for _, a := range call.Args {
		if v := identVar(info, a); v != nil && tracked[v] != nil {
			fn(v)
		}
	}
}

// identVar resolves a plain identifier expression to its variable object.
func identVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return varObj(info, id)
}

func varObj(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// mentionsVar reports whether n references v anywhere, nested function
// literals included.
func mentionsVar(info *types.Info, n ast.Node, v *types.Var) bool {
	used := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && info.Uses[id] == v {
			used = true
		}
		return !used
	})
	return used
}

// escapeIfDirect escapes a tracked var that IS e (not merely mentioned in it).
func escapeIfDirect(info *types.Info, e ast.Expr, tracked map[*types.Var]*arenaVar, st map[*types.Var]absState) {
	if v := identVar(info, e); v != nil && tracked[v] != nil {
		if st[v] == absOwned || st[v] == absMaybe {
			st[v] = absEscaped
		}
	}
}
