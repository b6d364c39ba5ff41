package analyzers

import (
	"go/ast"
	"go/types"
)

// AnalyzerGoroLeak requires every `go` statement to show join evidence: the
// spawned goroutine must either signal a sync.WaitGroup (Done on all paths
// out of its body — an early return that skips Done strands the matching
// Wait), communicate on a channel (a send, receive, select, close, or ranging
// over a channel ties its lifetime to a peer), or observe a context (a
// ctx-bounded loop exits on cancellation). A goroutine with none of these has
// no way to be waited for, drained, or cancelled — under fleet-era load each
// such spawn is a permanent memory and scheduler leak.
//
// Evidence is resolved interprocedurally: `go e.jobWorker()` is joined when
// jobWorker's summary says it calls WaitGroup.Done, and a helper called from
// the goroutine body contributes its summarized channel/ctx/Done facts.
// Goroutines spawned through function values (go fn() where fn is a
// variable) make no static claim and are skipped; nested `go` statements
// inside a goroutine body are separate spawns and do not count as evidence
// for their parent.
var AnalyzerGoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every spawned goroutine must be joinable: WaitGroup.Done on all paths, channel communication, or context bounding",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGoStmt(pass, g)
			}
			return true
		})
	}
}

func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		checkSpawnedLit(pass, g, lit)
		return
	}
	callee := calleeFunc(pass.Info, g.Call)
	if callee == nil {
		return // spawn through a function value: no static claim
	}
	cs := pass.Summaries.lookup(callee)
	if cs == nil {
		return // external or un-analyzed callee: trusted
	}
	if cs.CallsWGDone || cs.ChanOps || cs.ObservesCtx {
		return
	}
	pass.Reportf("goroleak", g.Pos(),
		"goroutine running %s has no join evidence: its summary shows no WaitGroup.Done, no channel communication, and no context observation — nothing can wait for, drain, or cancel it (pair it with a WaitGroup, tie it to a channel, or bound it with ctx)",
		callee.Name())
}

// litJoinEvidence is what a spawned function literal's body shows.
type litJoinEvidence struct {
	chanOps      bool
	ctxBounded   bool
	wgDone       bool
	deferredDone bool
}

func checkSpawnedLit(pass *Pass, g *ast.GoStmt, lit *ast.FuncLit) {
	ev := scanLitEvidence(pass, lit)
	switch {
	case ev.chanOps || ev.ctxBounded:
		return
	case ev.wgDone:
		if ev.deferredDone {
			return
		}
		cfg := buildCFG(lit.Body)
		if cfg.hasGoto {
			return
		}
		hit := func(n *cfgNode) bool {
			found := false
			for _, part := range n.nodeParts() {
				inspectSkippingFuncLits(part, func(x ast.Node) bool {
					if call, ok := x.(*ast.CallExpr); ok && callSignalsDone(pass, call) {
						found = true
					}
					return !found
				})
			}
			return found
		}
		if !allExitsReach(cfg, hit) {
			pass.Reportf("goroleak", g.Pos(),
				"goroutine calls WaitGroup.Done but not on all paths out of its body: an early return or panic strands the matching Wait forever (defer the Done as the first statement)")
		}
	default:
		pass.Reportf("goroleak", g.Pos(),
			"goroutine has no join evidence: no WaitGroup.Done, no channel communication, and no context observation on any path — nothing can wait for, drain, or cancel it (pair it with a WaitGroup, tie it to a channel, or bound it with ctx)")
	}
}

// scanLitEvidence walks the literal's body — nested literals included, since
// they run on the spawned goroutine, but nested `go` spawns excluded, since
// those are separate goroutines with their own join obligations.
func scanLitEvidence(pass *Pass, lit *ast.FuncLit) litJoinEvidence {
	info := pass.Info
	var ev litJoinEvidence

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if chanOp(info, n) {
			ev.chanOps = true
		}
		switch e := n.(type) {
		case *ast.GoStmt:
			return false // a nested spawn is its own goroutine, not our join
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok && isContextType(v.Type()) {
				ev.ctxBounded = true
			}
		case *ast.CallExpr:
			if callSignalsDone(pass, e) {
				ev.wgDone = true
			}
			if cs := pass.Summaries.summaryForCall(info, e); cs != nil {
				if cs.ChanOps {
					ev.chanOps = true
				}
				if cs.ObservesCtx {
					ev.ctxBounded = true
				}
			}
		case *ast.DeferStmt:
			if callSignalsDone(pass, e.Call) {
				ev.wgDone = true
				ev.deferredDone = true
			}
			if dl, ok := ast.Unparen(e.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(dl.Body, func(x ast.Node) bool {
					if call, ok := x.(*ast.CallExpr); ok && callSignalsDone(pass, call) {
						ev.wgDone = true
						ev.deferredDone = true
					}
					return true
				})
			}
		}
		return true
	})
	return ev
}

// callSignalsDone reports a direct sync.WaitGroup.Done call, or a call to a
// module function whose summary transitively calls Done.
func callSignalsDone(pass *Pass, call *ast.CallExpr) bool {
	if isSyncMethod(pass.Info, call, "WaitGroup", "Done") {
		return true
	}
	cs := pass.Summaries.summaryForCall(pass.Info, call)
	return cs != nil && cs.CallsWGDone
}
