package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// AnalyzerLockHold forbids holding a sync.Mutex / sync.RWMutex across a
// blocking operation. With a lock held (including via the idiomatic
// lock-then-defer-unlock pattern, which keeps the lock to function exit), the
// following are flagged:
//
//   - a channel send or receive, ranging over a channel included (the
//     pre-admission-control Engine.Submit deadlock shape: holding e.mu while
//     sending to a full queue channel stalls every other Submit AND the
//     worker that would drain it);
//   - a select with no default clause (its chosen communication blocks);
//   - a blocking compute.Pool dispatch (Do, ParallelFor, ParallelRanges,
//     RunPartitioned) — these park until workers finish, and workers may need
//     the same lock;
//   - sync.WaitGroup.Wait;
//   - sync.Cond.Wait on a condition variable that is not bound (via
//     sync.NewCond) to one of the locks currently held: Wait atomically
//     unlocks ITS OWN lock, so waiting under a different held lock sleeps
//     with that lock pinned;
//   - a call to a module function whose interprocedural summary says it may
//     block (a channel wait, pool dispatch, or WaitGroup.Wait hidden behind
//     any depth of helpers).
//
// The analysis is the held-lock pass (heldLocks) over the CFG: a lock held
// on any path into a blocking node is reported. Unlock/RUnlock clears the
// lock on that path; a deferred Unlock deliberately does not (the lock really
// is held for the remainder of the function body). A literal called on the
// spot runs under the caller's locks and is walked inline at its call. What
// blocks is the blocking-op model's answer (blockingOp), shared with the
// summary layer.
var AnalyzerLockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no mutex held across channel operations, blocking pool dispatches, WaitGroup.Wait, or foreign cond.Wait",
	Run:  runLockHold,
}

// condBindings maps the field/variable object of a *sync.Cond to the object
// of the lock it was constructed over with sync.NewCond(&lock).
type condBindings map[types.Object]types.Object

func runLockHold(pass *Pass) {
	binds := collectCondBindings(pass)
	called := map[*ast.FuncLit]bool{}
	for _, f := range pass.Files {
		maps.Copy(called, calledLits(f))
	}
	forEachFunc(pass.Files, func(_ *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		if called[lit] {
			return // walked inline with its caller
		}
		reported := map[ast.Node]bool{}
		heldLocks(pass.Info, pass.Pkg.Path(), body, heldSet{}, func(n *cfgNode, x ast.Node, held heldSet) {
			checkBlocking(pass, n, x, held, binds, reported)
		})
	})
}

// collectCondBindings pre-scans the package for sync.NewCond(&X) assignments,
// binding the cond's destination object to X's object.
func collectCondBindings(pass *Pass) condBindings {
	binds := condBindings{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range a.Rhs {
				if i >= len(a.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				fn := calleeFunc(pass.Info, call)
				if fn == nil || fn.Name() != "NewCond" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
					continue
				}
				if len(call.Args) != 1 {
					continue
				}
				ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok {
					continue
				}
				lockObj := exprObject(pass.Info, ue.X)
				condObj := exprObject(pass.Info, a.Lhs[i])
				if lockObj != nil && condObj != nil {
					binds[condObj] = lockObj
				}
			}
			return true
		})
	}
	return binds
}

// heldLock is one lock in the may-hold set: its object, which sync.NewCond
// bindings name, and its canonical lockID, which lock-order edges name.
type heldLock struct {
	obj types.Object
	id  string
}

// heldSet is the may-hold state, keyed by the receiver's spelling (exprKey).
type heldSet map[string]heldLock

// lockVisit sees one AST node that CFG node n evaluates, with the locks held
// just before it.
type lockVisit func(n *cfgNode, x ast.Node, held heldSet)

// heldLocks is the held-lock pass over body, entered holding entry (which it
// does not modify): it solves the may-hold set at the entry of every node of
// body's CFG, walks each reachable node once more with visit (when
// non-nil), and returns the set that may be held when body returns, its
// deferred calls run. A function literal that body calls on the spot is
// walked inline at its call (lockWalk); other nested literals are separate
// bodies. A body that uses goto is skipped and returns entry.
func heldLocks(info *types.Info, pkgPath string, body *ast.BlockStmt, entry heldSet, visit lockVisit) heldSet {
	if len(entry) == 0 && !takesLock(info, body) {
		return entry
	}
	g := buildCFG(body)
	if g.hasGoto {
		return entry
	}
	step := func(n *cfgNode, held heldSet) heldSet { return lockStep(info, pkgPath, n, held, nil) }
	in := forwardMay(g, entry, step, func(dst, src heldSet) bool {
		grew := false
		for k, l := range src {
			if _, ok := dst[k]; !ok {
				dst[k] = l
				grew = true
			}
		}
		return grew
	})
	exit := heldSet{}
	for _, n := range g.nodes {
		if in[n.index] == nil {
			continue
		}
		out := lockStep(info, pkgPath, n, maps.Clone(in[n.index]), visit)
		// A panic unwinds past the caller too, so only returns count.
		if es, ok := n.stmt.(*ast.ExprStmt); n.exit && !(ok && isPanicCall(es.X)) {
			maps.Copy(exit, out)
		}
	}
	for i := len(g.defers) - 1; i >= 0; i-- {
		exit = lockWalk(info, pkgPath, nil, g.defers[i].Call, nil, exit, nil)
	}
	return exit
}

// takesLock reports whether body calls Lock or RLock anywhere, nested
// literals included; without such a call nothing is ever held in it.
func takesLock(info *types.Info, body *ast.BlockStmt) bool {
	locks := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isMutexCall(info, call, "Lock", "RLock") {
			locks = true
		}
		return !locks
	})
	return locks
}

// lockStep applies node n's Lock and Unlock calls to held, in source order,
// and returns it; visit, when non-nil, sees n's statement and then every
// node lockWalk meets. A defer node has no effect and is not visited: its
// call runs at function exit, so `defer mu.Unlock()` keeps mu held for the
// rest of the body.
func lockStep(info *types.Info, pkgPath string, n *cfgNode, held heldSet, visit lockVisit) heldSet {
	if _, isDefer := n.stmt.(*ast.DeferStmt); isDefer || n.stmt == nil {
		return held
	}
	if visit != nil {
		visit(n, n.stmt, held)
	}
	var spawned *ast.CallExpr
	if g, ok := n.stmt.(*ast.GoStmt); ok {
		spawned = g.Call
	}
	for _, part := range n.nodeParts() {
		held = lockWalk(info, pkgPath, n, part, spawned, held, visit)
	}
	return held
}

// lockWalk applies the Lock and Unlock calls under root to held, in source
// order, and returns it, showing visit (when non-nil) each node first. A
// function literal called there runs on the spot: heldLocks walks its body
// from the locks held at the call, and the caller holds its exit set after
// it. The spawned call (a go statement's) runs on its own goroutine, so it is
// neither visited, applied nor inlined; only its function value and
// arguments, which the spawner evaluates, are walked.
func lockWalk(info *types.Info, pkgPath string, n *cfgNode, root ast.Node, spawned *ast.CallExpr, held heldSet, visit lockVisit) heldSet {
	inspectSkippingFuncLits(root, func(x ast.Node) bool {
		call, isCall := x.(*ast.CallExpr)
		if isCall && call == spawned {
			return true
		}
		if visit != nil {
			visit(n, x, held)
		}
		if !isCall {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			held = heldLocks(info, pkgPath, lit.Body, held, visit)
		} else if recv := mutexRecvExpr(call); recv != nil {
			switch {
			case isMutexCall(info, call, "Lock", "RLock"):
				held[exprKey(recv)] = heldLock{obj: exprObject(info, recv), id: lockID(info, pkgPath, recv)}
			case isMutexCall(info, call, "Unlock", "RUnlock"):
				delete(held, exprKey(recv))
			}
		}
		return true
	})
	return held
}

// blockingOp names the operation at n that may park the goroutine, or
// returns "" when n cannot block by itself. The summary layer (MayBlock) and
// lockhold share it; calls into module functions are left to their
// summaries.
func blockingOp(info *types.Info, n ast.Node) string {
	switch e := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.RangeStmt:
		if rangesOverChan(info, e) {
			return "channel receive"
		}
	case *ast.SelectStmt:
		for _, cl := range e.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				return "" // a default clause never waits
			}
		}
		return "select with no default clause"
	case *ast.CallExpr:
		switch {
		case isPoolDispatch(info, e):
			return "blocking compute.Pool dispatch"
		case isSyncMethod(info, e, "WaitGroup", "Wait"):
			return "sync.WaitGroup.Wait"
		case isSyncMethod(info, e, "Cond", "Wait"):
			return "sync.Cond.Wait"
		}
	}
	return ""
}

// commOp returns the send or receive a select clause's communication
// performs (nil for a default clause).
func commOp(comm ast.Stmt) ast.Node {
	switch c := comm.(type) {
	case *ast.SendStmt:
		return c
	case *ast.ExprStmt:
		return ast.Unparen(c.X)
	case *ast.AssignStmt:
		return ast.Unparen(c.Rhs[0])
	}
	return nil
}

// chanOp reports whether n communicates on a channel: a send, a receive, a
// range over a channel, a select with a communication clause, or a call of
// the close builtin. The summary layer (ChanOps) and goroleak share it.
func chanOp(info *types.Info, n ast.Node) bool {
	switch e := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.UnaryExpr:
		return e.Op == token.ARROW
	case *ast.RangeStmt:
		return rangesOverChan(info, e)
	case *ast.SelectStmt:
		for _, cl := range e.Body.List {
			if cl.(*ast.CommClause).Comm != nil {
				return true
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			_, isBuiltin := info.Uses[id].(*types.Builtin)
			return isBuiltin && id.Name == "close"
		}
	}
	return false
}

func rangesOverChan(info *types.Info, r *ast.RangeStmt) bool {
	t := info.TypeOf(r.X)
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// isPoolDispatch reports a compute.Pool call that parks until its workers
// finish.
func isPoolDispatch(info *types.Info, call *ast.CallExpr) bool {
	return isMethodOn(info, call, "compute", "Pool", "Do", "ParallelFor", "ParallelRanges", "RunPartitioned")
}

// checkBlocking reports x, a node CFG node n evaluates, if it may block
// while locks are held.
func checkBlocking(pass *Pass, n *cfgNode, x ast.Node, held heldSet, binds condBindings, reported map[ast.Node]bool) {
	// A communication clause blocks as part of its select, which the
	// select's head accounts for. (Deferred calls are never visited: they
	// run at function exit.)
	if len(held) == 0 || n.isComm {
		return
	}
	report := func(at ast.Node, what string) {
		if reported[at] {
			return
		}
		reported[at] = true
		pass.Reportf("lockhold", at.Pos(),
			"%s while holding %s: blocking with a mutex held stalls every contender (release the lock first, or restructure so the blocking op happens outside the critical section)",
			what, strings.Join(slices.Sorted(maps.Keys(held)), ", "))
	}

	// A send, receive, default-less select, range over a channel (whose
	// head receives on every iteration) or blocking call.
	switch op := blockingOp(pass.Info, x); op {
	case "":
	case "sync.Cond.Wait":
		checkCondWait(pass, x.(*ast.CallExpr), held, binds, report)
	default:
		report(x, op)
	}
	if call, ok := x.(*ast.CallExpr); ok {
		if cs := pass.Summaries.summaryForCall(pass.Info, call); cs != nil && cs.MayBlock {
			if f := calleeFunc(pass.Info, call); f != nil {
				report(call, fmt.Sprintf("call to %s, which may block (transitively, per its interprocedural summary)", f.Name()))
			}
		}
	}
}

// checkCondWait allows cond.Wait only when the cond is bound (via
// sync.NewCond) to one of the currently held locks.
func checkCondWait(pass *Pass, call *ast.CallExpr, held heldSet, binds condBindings, report func(ast.Node, string)) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		report(call, "sync.Cond.Wait on an unresolvable condition variable")
		return
	}
	condObj := exprObject(pass.Info, sel.X)
	lockObj := binds[condObj]
	if lockObj == nil {
		report(call, "sync.Cond.Wait on a condition variable with no visible sync.NewCond binding")
		return
	}
	for _, l := range held {
		if l.obj != nil && l.obj == lockObj {
			return // Waiting on the lock we hold: the one correct pattern.
		}
	}
	report(call, "sync.Cond.Wait bound to a DIFFERENT lock than the one(s) held")
}

// isMutexCall reports a method call with one of names on sync.Mutex/RWMutex.
func isMutexCall(info *types.Info, call *ast.CallExpr, names ...string) bool {
	return isSyncMethodAny(info, call, []string{"Mutex", "RWMutex"}, names)
}

func isSyncMethod(info *types.Info, call *ast.CallExpr, typeName string, names ...string) bool {
	return isSyncMethodAny(info, call, []string{typeName}, names)
}

func isSyncMethodAny(info *types.Info, call *ast.CallExpr, typeNames, names []string) bool {
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	named := recvNamed(f)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return slices.Contains(typeNames, named.Obj().Name()) && slices.Contains(names, f.Name())
}

// mutexRecvExpr extracts the receiver expression of a method call
// (x.mu.Lock() -> x.mu), or nil for non-selector calls.
func mutexRecvExpr(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// exprKey renders an ident/selector chain canonically ("q.mu"); other shapes
// get a position-independent fallback so they at least self-match.
func exprKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return exprKey(x.X)
	case *ast.IndexExpr:
		return exprKey(x.X) + "[...]"
	case *ast.CallExpr:
		return exprKey(x.Fun) + "()"
	default:
		return "<expr>"
	}
}

// exprObject resolves the final object an ident/selector chain denotes: the
// selected field for q.cond / q.mu, the variable for a plain ident.
func exprObject(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := info.Uses[x]; o != nil {
			return o
		}
		return info.Defs[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	case *ast.StarExpr:
		return exprObject(info, x.X)
	}
	return nil
}
