package analyzers

import (
	"go/ast"
	"go/token"
	"maps"
)

// The analysis core shared by the flow-sensitive analyzers:
//
//   - this file's CFG and its one solver, forwardMay (a forward may-analysis
//     to a fixpoint; each analysis then makes its own reporting pass), used
//     by arenapair and the held-lock pass;
//   - the held-lock pass, heldLocks plus the per-node lockStep (lockhold.go),
//     whose entries carry a lock's object for sync.NewCond bindings and its
//     lockID for lock-order edges: lockhold and lockEdgesForBody visit it;
//   - blockingOp and chanOp (lockhold.go), the one blocking-op model, which
//     the summary layer, lockhold and goroleak call;
//   - tarjan (callgraph.go), the SCC routine of the call and lock graphs.
//
// The CFG makes each atomic statement one node; structured statements
// (if/for/range/switch/select) are lowered to edges. Function literals are
// NOT descended into — each FuncLit body is analyzed as its own function by
// the callers, except that the held-lock pass walks a literal called on the
// spot inline at its call (calledLits, lockWalk).
//
// The builder is conservative where precision is not needed:
//
//   - goto is unsupported: functions containing goto are skipped entirely by
//     CFG-based analyzers (none exist in this repository; skipping avoids
//     false positives from approximated jumps).
//   - panic(...) is an exit node (defers still run, which the arenapair
//     analysis models via its defer set).
//   - labeled break/continue resolve to their labeled loop or switch.

// cfgNode is one statement (or synthetic entry/exit) in the graph.
type cfgNode struct {
	stmt   ast.Stmt // nil for the synthetic entry and exit
	succs  []*cfgNode
	index  int
	exit   bool // function exit: return, panic, or fallthrough off the end
	isComm bool // a select communication clause (blocking is the select's, not the op's)
}

// nodeParts returns the AST fragments evaluated AT this node itself —
// excluding nested statements, which have their own nodes. Structured
// statements contribute only their condition/tag expression.
func (n *cfgNode) nodeParts() []ast.Node {
	switch s := n.stmt.(type) {
	case nil:
		return nil
	case *ast.IfStmt:
		return []ast.Node{s.Cond}
	case *ast.ForStmt:
		if s.Cond == nil {
			return nil
		}
		return []ast.Node{s.Cond}
	case *ast.RangeStmt:
		return []ast.Node{s.X}
	case *ast.SwitchStmt:
		if s.Tag == nil {
			return nil
		}
		return []ast.Node{s.Tag}
	case *ast.TypeSwitchStmt:
		return []ast.Node{s.Assign}
	case *ast.SelectStmt:
		return nil
	case *ast.ReturnStmt:
		out := make([]ast.Node, 0, len(s.Results))
		for _, r := range s.Results {
			out = append(out, r)
		}
		return out
	default:
		return []ast.Node{s}
	}
}

// cfg is the graph for one function body.
type cfg struct {
	entry *cfgNode
	nodes []*cfgNode
	// defers collects every defer statement in the body, in syntactic order.
	defers []*ast.DeferStmt
	// hasGoto reports an unsupported construct; analyses should skip.
	hasGoto bool
}

// loopFrame tracks break/continue targets while building.
type loopFrame struct {
	label       string
	breakTarget *joinPoint
	contTarget  *joinPoint
	isLoop      bool // switch/select frames accept break but not continue
}

// joinPoint is a forward-reference target: nodes that should flow to a point
// whose node is created later.
type joinPoint struct {
	preds []*cfgNode
}

func (j *joinPoint) addPred(n *cfgNode) {
	if n != nil {
		j.preds = append(j.preds, n)
	}
}

func (j *joinPoint) resolve(target *cfgNode) {
	for _, p := range j.preds {
		p.succs = append(p.succs, target)
	}
}

// cfgBuilder builds the graph.
type cfgBuilder struct {
	g      *cfg
	frames []*loopFrame
}

// buildCFG constructs the CFG for a function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}}
	b.g.entry = b.newNode(nil)
	exits := b.stmtList(body.List, []*cfgNode{b.g.entry})
	// Whatever falls off the end of the body is a function exit.
	end := b.newNode(nil)
	end.exit = true
	for _, n := range exits {
		n.succs = append(n.succs, end)
	}
	return b.g
}

func (b *cfgBuilder) newNode(s ast.Stmt) *cfgNode {
	n := &cfgNode{stmt: s, index: len(b.g.nodes)}
	b.g.nodes = append(b.g.nodes, n)
	return n
}

// link points every node in from at to.
func link(from []*cfgNode, to *cfgNode) {
	for _, f := range from {
		f.succs = append(f.succs, to)
	}
}

// stmtList threads a statement list: preds are the incoming nodes; the return
// value is the set of nodes that fall through past the last statement.
func (b *cfgBuilder) stmtList(list []ast.Stmt, preds []*cfgNode) []*cfgNode {
	cur := preds
	for _, s := range list {
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt lowers one statement; returns its fallthrough successors.
func (b *cfgBuilder) stmt(s ast.Stmt, preds []*cfgNode) []*cfgNode {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(st.List, preds)

	case *ast.LabeledStmt:
		return b.labeled(st, preds)

	case *ast.IfStmt:
		if st.Init != nil {
			preds = b.stmt(st.Init, preds)
		}
		cond := b.newNode(s) // condition evaluation carries the stmt for expr scanning
		link(preds, cond)
		thenOut := b.stmtList(st.Body.List, []*cfgNode{cond})
		if st.Else != nil {
			elseOut := b.stmt(st.Else, []*cfgNode{cond})
			return append(thenOut, elseOut...)
		}
		return append(thenOut, cond)

	case *ast.ForStmt:
		return b.forStmt(st, "", preds)

	case *ast.RangeStmt:
		return b.rangeStmt(st, "", preds)

	case *ast.SwitchStmt:
		return b.switchLike(s, st.Init, stmtBodies(st.Body), "", preds)

	case *ast.TypeSwitchStmt:
		return b.switchLike(s, st.Init, stmtBodies(st.Body), "", preds)

	case *ast.SelectStmt:
		return b.selectStmt(st, "", preds)

	case *ast.ReturnStmt:
		n := b.newNode(s)
		n.exit = true
		link(preds, n)
		return nil

	case *ast.BranchStmt:
		return b.branch(st, preds)

	case *ast.DeferStmt:
		n := b.newNode(s)
		link(preds, n)
		b.g.defers = append(b.g.defers, st)
		return []*cfgNode{n}

	case *ast.ExprStmt:
		n := b.newNode(s)
		link(preds, n)
		if isPanicCall(st.X) {
			n.exit = true
			return nil
		}
		return []*cfgNode{n}

	default:
		// Atomic statements: assignments, declarations, sends, inc/dec, go, empty.
		n := b.newNode(s)
		link(preds, n)
		return []*cfgNode{n}
	}
}

func (b *cfgBuilder) labeled(st *ast.LabeledStmt, preds []*cfgNode) []*cfgNode {
	label := st.Label.Name
	switch inner := st.Stmt.(type) {
	case *ast.ForStmt:
		return b.forStmt(inner, label, preds)
	case *ast.RangeStmt:
		return b.rangeStmt(inner, label, preds)
	case *ast.SwitchStmt:
		return b.switchLike(inner, inner.Init, stmtBodies(inner.Body), label, preds)
	case *ast.TypeSwitchStmt:
		return b.switchLike(inner, inner.Init, stmtBodies(inner.Body), label, preds)
	case *ast.SelectStmt:
		return b.selectStmt(inner, label, preds)
	default:
		// A label on a plain statement is a goto target: unsupported.
		b.g.hasGoto = true
		return b.stmt(st.Stmt, preds)
	}
}

func (b *cfgBuilder) branch(st *ast.BranchStmt, preds []*cfgNode) []*cfgNode {
	n := b.newNode(st)
	link(preds, n)
	label := ""
	if st.Label != nil {
		label = st.Label.Name
	}
	switch st.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if label == "" || f.label == label {
				f.breakTarget.addPred(n)
				return nil
			}
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.isLoop && (label == "" || f.label == label) {
				f.contTarget.addPred(n)
				return nil
			}
		}
	case token.FALLTHROUGH:
		// Approximated: treat as fallthrough to the end of the clause. The
		// next case body is analyzed from the switch head anyway, which is a
		// sound over-approximation for the union-style dataflows here.
		return []*cfgNode{n}
	case token.GOTO:
		b.g.hasGoto = true
		return nil
	}
	// Unresolvable label: give up precisely, mark unsupported.
	b.g.hasGoto = true
	return nil
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt, label string, preds []*cfgNode) []*cfgNode {
	if st.Init != nil {
		preds = b.stmt(st.Init, preds)
	}
	head := b.newNode(st) // condition node
	link(preds, head)
	frame := &loopFrame{label: label, breakTarget: &joinPoint{}, contTarget: &joinPoint{}, isLoop: true}
	b.frames = append(b.frames, frame)
	bodyOut := b.stmtList(st.Body.List, []*cfgNode{head})
	b.frames = b.frames[:len(b.frames)-1]

	// continue and body fallthrough run Post, then return to the head.
	var backPreds []*cfgNode
	backPreds = append(backPreds, bodyOut...)
	contNode := b.newNode(st.Post) // nil stmt ok
	frame.contTarget.resolve(contNode)
	link(backPreds, contNode)
	contNode.succs = append(contNode.succs, head)

	exitJoin := b.newNode(nil)
	frame.breakTarget.resolve(exitJoin)
	if st.Cond != nil {
		head.succs = append(head.succs, exitJoin) // condition false
	}
	// for {} with no cond and no break never exits; exitJoin simply has no preds.
	return []*cfgNode{exitJoin}
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt, label string, preds []*cfgNode) []*cfgNode {
	head := b.newNode(st)
	link(preds, head)
	frame := &loopFrame{label: label, breakTarget: &joinPoint{}, contTarget: &joinPoint{}, isLoop: true}
	b.frames = append(b.frames, frame)
	bodyOut := b.stmtList(st.Body.List, []*cfgNode{head})
	b.frames = b.frames[:len(b.frames)-1]
	link(bodyOut, head)
	contNode := b.newNode(nil)
	frame.contTarget.resolve(contNode)
	contNode.succs = append(contNode.succs, head)

	exitJoin := b.newNode(nil)
	frame.breakTarget.resolve(exitJoin)
	head.succs = append(head.succs, exitJoin) // range exhausted
	return []*cfgNode{exitJoin}
}

// switchLike lowers switch and type-switch: every clause body starts at the
// head, and the head also flows straight to the join (no clause matched).
func (b *cfgBuilder) switchLike(s ast.Stmt, init ast.Stmt, bodies [][]ast.Stmt, label string, preds []*cfgNode) []*cfgNode {
	if init != nil {
		preds = b.stmt(init, preds)
	}
	head := b.newNode(s)
	link(preds, head)
	frame := &loopFrame{label: label, breakTarget: &joinPoint{}}
	b.frames = append(b.frames, frame)
	var outs []*cfgNode
	for _, body := range bodies {
		outs = append(outs, b.stmtList(body, []*cfgNode{head})...)
	}
	b.frames = b.frames[:len(b.frames)-1]
	exitJoin := b.newNode(nil)
	frame.breakTarget.resolve(exitJoin)
	link(outs, exitJoin)
	// No-default (or no-match) path: head flows straight to the join.
	head.succs = append(head.succs, exitJoin)
	return []*cfgNode{exitJoin}
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt, label string, preds []*cfgNode) []*cfgNode {
	head := b.newNode(st)
	link(preds, head)
	frame := &loopFrame{label: label, breakTarget: &joinPoint{}}
	b.frames = append(b.frames, frame)
	var outs []*cfgNode
	for _, cl := range st.Body.List {
		comm := cl.(*ast.CommClause)
		start := []*cfgNode{head}
		if comm.Comm != nil {
			start = b.stmt(comm.Comm, start)
			for _, n := range start {
				n.isComm = true
			}
		}
		outs = append(outs, b.stmtList(comm.Body, start)...)
	}
	b.frames = b.frames[:len(b.frames)-1]
	exitJoin := b.newNode(nil)
	frame.breakTarget.resolve(exitJoin)
	link(outs, exitJoin)
	return []*cfgNode{exitJoin}
}

func stmtBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// allExitsReach reports whether every path from entry to a reachable function
// exit passes through at least one node satisfying hit. Vacuously true when no
// exit is reachable (a for{} worker loop never falls off the end). Used by
// goroleak to require WaitGroup.Done on all paths out of a goroutine body.
func allExitsReach(g *cfg, hit func(*cfgNode) bool) bool {
	// Forward reachability of the "no hit seen yet" state.
	avoiding := make([]bool, len(g.nodes))
	avoiding[g.entry.index] = true
	work := []*cfgNode{g.entry}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if hit(n) {
			continue // every path through n is covered from here on
		}
		if n.exit {
			return false // fell off an exit without passing a hit
		}
		for _, s := range n.succs {
			if !avoiding[s.index] {
				avoiding[s.index] = true
				work = append(work, s)
			}
		}
	}
	return true
}

// forwardMay solves a forward may-analysis over g and returns every node's
// fixpoint entry state, nil where no path reaches the node. The entry node
// starts from entry, which is not modified; step maps a private copy of a
// node's entry state to its exit state; join folds an exit state into a
// successor's entry state and reports whether that grew.
func forwardMay[S ~map[K]V, K comparable, V any](g *cfg, entry S, step func(*cfgNode, S) S, join func(dst, src S) bool) []S {
	in := make([]S, len(g.nodes))
	in[g.entry.index] = entry
	work := []*cfgNode{g.entry}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		out := step(n, maps.Clone(in[n.index]))
		for _, s := range n.succs {
			if in[s.index] == nil {
				in[s.index] = maps.Clone(out)
			} else if !join(in[s.index], out) {
				continue
			}
			work = append(work, s)
		}
	}
	return in
}

// forEachFunc invokes fn for every function body in the file set of a pass:
// declarations and each function literal, every one as an independent unit
// (callers exclude a literal's body from its parent's walk with
// inspectSkippingFuncLits). The held-lock pass skips the literals of
// calledLits: it walks those inline with their caller.
func forEachFunc(files []*ast.File, fn func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d, nil, d.Body)
				}
			case *ast.FuncLit:
				fn(nil, d, d.Body)
			}
			return true
		})
	}
}

// calledLits returns the function literals under root that are called on
// the spot, outside a go or defer statement: func(){...}() runs in its
// caller's goroutine, between the caller's neighbouring statements.
func calledLits(root ast.Node) map[*ast.FuncLit]bool {
	spawned := map[*ast.CallExpr]bool{} // go and defer calls
	called := map[*ast.FuncLit]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.GoStmt:
			spawned[e.Call] = true
		case *ast.DeferStmt:
			spawned[e.Call] = true
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok && !spawned[e] {
				called[lit] = true
			}
		}
		return true
	})
	return called
}

// inspectSkippingFuncLits walks the statement tree of body but does not
// descend into nested function literals — used by analyses that treat each
// FuncLit as a separate function.
func inspectSkippingFuncLits(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		return fn(n)
	})
}
