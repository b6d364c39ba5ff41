package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerCtxLoop enforces the cancellation discipline of the decomposition
// call graph. Two rules:
//
//  1. Inside a function that takes a context.Context, any for/range loop whose
//     body dispatches heavy work — a blocking compute.Pool dispatch (Do,
//     ParallelFor, ParallelRanges, RunPartitioned) or a call to another
//     context-taking function — must observe the context at least once per
//     iteration (ctx.Err(), ctx.Done(), or passing ctx to a callee). An ALS
//     sweep that ignores its context between iterations turns Stop/timeout
//     into a no-op for seconds at a time.
//  2. An exported function or method whose name ends in "Ctx" and takes a
//     context must actually use it somewhere in its body. A ...Ctx entry point
//     that drops ctx on the floor advertises cancellation it does not deliver.
//
// Loops whose bodies do only cheap scalar work are exempt: per-iteration
// ctx checks there would cost more than they protect.
var AnalyzerCtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc:  "heavy loops in context-taking functions must observe ctx per iteration; exported ...Ctx functions must use ctx",
	Run:  runCtxLoop,
}

func runCtxLoop(pass *Pass) {
	forEachFunc(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		ctxVar := ctxParamVar(pass.Info, decl, lit)
		if ctxVar == nil {
			return
		}

		// Rule 2: exported ...Ctx functions must use ctx — and "use" means
		// observe: with summaries available, handing ctx exclusively to module
		// callees that provably ignore it is the same broken promise one call
		// deeper.
		if decl != nil && decl.Name.IsExported() && strings.HasSuffix(decl.Name.Name, "Ctx") {
			// A closure that captures ctx and checks it counts as a use.
			if !mentionsVar(pass.Info, body, ctxVar) {
				pass.Reportf("ctxloop", decl.Name.Pos(),
					"exported %s takes a context.Context but never uses it: a ...Ctx entry point must deliver the cancellation it advertises (check ctx.Err() or pass ctx down)",
					decl.Name.Name)
				// A dropped ctx cannot appear in any loop either; rule 1
				// would only duplicate the finding.
				return
			}
			if !ctxObservedIn(pass.Info, pass.Summaries, body, ctxVar) {
				pass.Reportf("ctxloop", decl.Name.Pos(),
					"exported %s passes its context only to callees that never observe a context: the cancellation it advertises is not delivered anywhere downstream",
					decl.Name.Name)
				return
			}
		}

		// Rule 1: heavy loops must observe ctx per iteration.
		checkLoops(pass, body, ctxVar)
	})
}

// checkLoops walks the statement tree (skipping FuncLits, which get their own
// forEachFunc visit) and flags heavy loops that never observe ctx. When an
// outer loop is flagged, its inner loops are not re-flagged.
func checkLoops(pass *Pass, n ast.Node, ctxVar *types.Var) {
	inspectSkippingFuncLits(n, func(x ast.Node) bool {
		var body *ast.BlockStmt
		switch l := x.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		if !loopIsHeavy(pass.Info, pass.Summaries, body) {
			return true
		}
		if ctxObservedIn(pass.Info, pass.Summaries, body, ctxVar) {
			return true
		}
		pass.Reportf("ctxloop", x.Pos(),
			"loop dispatches heavy work but never observes ctx: check ctx.Err() (or pass ctx to a callee that honors it) each iteration so cancellation takes effect between sweeps")
		return false // inner loops of a flagged loop share the fix
	})
}

// loopIsHeavy reports whether the loop body dispatches heavy work: a blocking
// compute.Pool dispatch, a call to a context-taking function (which by
// definition is cancellable, i.e. long enough to matter), or — with summaries
// available — any call whose callee transitively may block (channel waits,
// pool dispatch, WaitGroup.Wait hidden behind a helper). FuncLit bodies are
// included here — a closure defined in the loop body and handed to the pool
// IS the per-iteration work.
func loopIsHeavy(info *types.Info, summaries *SummaryTable, body *ast.BlockStmt) bool {
	heavy := false
	ast.Inspect(body, func(n ast.Node) bool {
		if heavy {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPoolDispatch(info, call) {
			heavy = true
			return false
		}
		if f := calleeFunc(info, call); f != nil {
			if sig, ok := f.Type().(*types.Signature); ok && hasCtxParam(sig) {
				heavy = true
				return false
			}
		}
		if cs := summaries.summaryForCall(info, call); cs != nil && cs.MayBlock {
			heavy = true
			return false
		}
		return true
	})
	return heavy
}

// ctxParamVar returns the *types.Var of the (first) context.Context parameter
// as declared in the function's parameter list, or nil. Blank ("_") contexts
// return nil — the function explicitly discards cancellation.
func ctxParamVar(info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit) *types.Var {
	var ftype *ast.FuncType
	if decl != nil {
		ftype = decl.Type
	} else if lit != nil {
		ftype = lit.Type
	}
	if ftype == nil || ftype.Params == nil {
		return nil
	}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if v, ok := info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				return v
			}
		}
	}
	return nil
}
