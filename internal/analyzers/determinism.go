package analyzers

import (
	"go/ast"
	"go/types"
)

// AnalyzerDeterminism guards the bit-reproducibility contract of the kernel
// and decomposition packages (internal/mat, lapack, rsvd, parafac2, rng):
//
//   - No math/rand (or math/rand/v2): every random draw must come from the
//     deterministic, explicitly-seeded internal/rng generator. The global
//     math/rand functions share hidden process state; even a locally
//     constructed rand.Rand encodes a different stream contract than the
//     Split/Clone reproducibility discipline the repository depends on.
//   - time.Now / time.Since may record wall-clock metadata (plain assignment
//     to a variable or field, e.g. Result.IterTime) but must not feed
//     computation: a timestamp used in arithmetic, a comparison, a
//     conversion, a method call (UnixNano, Seconds, ...), or as a call
//     argument makes iteration counts or numeric values depend on the clock.
//   - No range over a map when the loop body (per-iteration order) can
//     change the result: accumulating into a floating-point variable
//     declared outside the loop, appending to a slice declared outside the
//     loop, or drawing from an rng.RNG. Map iteration order is randomized
//     per run, so any of these makes results run-dependent.
var AnalyzerDeterminism = &Analyzer{
	Name:      "determinism",
	Doc:       "forbid math/rand, clock-fed computation, and order-sensitive map ranges in kernel packages",
	AppliesTo: func(pkgPath string) bool { return kernelPackages[pkgPath] },
	Run:       runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				checkRandUse(pass, e)
			case *ast.CallExpr:
				checkTimeCall(pass, f, e)
			case *ast.RangeStmt:
				checkMapRange(pass, e)
			}
			return true
		})
	}
}

// checkRandUse flags any qualified reference into math/rand or math/rand/v2.
func checkRandUse(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		pass.Reportf("determinism", sel.Pos(),
			"use of %s.%s: kernel packages must draw randomness from the deterministic internal/rng generator, never math/rand",
			obj.Pkg().Name(), obj.Name())
	}
}

// checkTimeCall flags time.Now / time.Since results that feed computation.
func checkTimeCall(pass *Pass, file *ast.File, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "time" {
		return
	}
	if f.Name() != "Now" && f.Name() != "Since" {
		return
	}
	if timeCallIsBenign(file, call) {
		return
	}
	pass.Reportf("determinism", call.Pos(),
		"time.%s feeds computation here: wall-clock values may only be recorded (plain assignment to a timing variable or field), never used in arithmetic, comparisons, conversions, or as call arguments",
		f.Name())
}

// timeCallIsBenign reports whether the call's value is merely recorded: its
// direct parent is a single-value assignment/definition or a variable
// declaration. Everything else — an argument position, a binary expression,
// a method call on the result, a condition — counts as feeding computation.
func timeCallIsBenign(file *ast.File, call *ast.CallExpr) bool {
	parent := parentNode(file, call)
	switch p := parent.(type) {
	case *ast.AssignStmt:
		return len(p.Rhs) == 1 && ast.Unparen(p.Rhs[0]) == call
	case *ast.ValueSpec:
		return len(p.Values) == 1 && ast.Unparen(p.Values[0]) == call
	case *ast.CallExpr:
		// time.Since(x) has the inner x, not a time call, so the only call
		// parent of interest is "the result passed somewhere" — computation.
		return false
	case *ast.KeyValueExpr:
		// Recording into a struct literal field (e.g. Result{IterTime: ...}).
		return ast.Unparen(p.Value) == call
	}
	return false
}

// parentNode finds the immediate parent of target in file (nil at top level).
func parentNode(file *ast.File, target ast.Node) ast.Node {
	var parent ast.Node
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if n == target && len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return parent == nil
	})
	return parent
}

// checkMapRange flags order-sensitive map iteration.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	body := rng.Body
	var reason string
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch e := n.(type) {
		case *ast.AssignStmt:
			if reasonFromAssign(pass, e, body) != "" {
				reason = reasonFromAssign(pass, e, body)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
				if v := localVarOf(pass.Info, e.Args[0]); v != nil && declaredOutside(v, body) {
					reason = "appends to slice " + v.Name() + " declared outside the loop"
				}
			}
			if isMethodOn(pass.Info, e, "rng", "RNG",
				"Uint64", "Float64", "Intn", "Norm", "NormSlice", "UniformSlice", "Perm", "Split") {
				reason = "draws from an rng.RNG generator"
			}
		}
		return true
	})
	if reason != "" {
		pass.Reportf("determinism", rng.Pos(),
			"range over map in iteration-order-sensitive position: loop body %s, and map iteration order is randomized per run", reason)
	}
}

// reasonFromAssign reports a float accumulation into a variable declared
// outside the loop body ("x += ...", "x = x + ..."), or "".
func reasonFromAssign(pass *Pass, a *ast.AssignStmt, body *ast.BlockStmt) string {
	if len(a.Lhs) != 1 {
		return ""
	}
	v := localVarOf(pass.Info, a.Lhs[0])
	if v == nil || !isFloatish(v.Type()) || !declaredOutside(v, body) {
		return ""
	}
	switch a.Tok.String() {
	case "+=", "-=", "*=", "/=":
		return "accumulates into floating-point variable " + v.Name()
	case "=":
		// x = x <op> ... — self-referencing update.
		if mentionsVar(pass.Info, a.Rhs[0], v) {
			return "accumulates into floating-point variable " + v.Name()
		}
	}
	return ""
}

func isFloatish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// localVarOf resolves an expression to the *types.Var it names (plain
// identifier or selector base handled as the selected field's object).
func localVarOf(info *types.Info, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[x].(*types.Var)
		if v == nil {
			v, _ = info.Defs[x].(*types.Var)
		}
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v
	case *ast.IndexExpr:
		return localVarOf(info, x.X)
	}
	return nil
}

// declaredOutside reports whether v's declaration lies outside the node span.
func declaredOutside(v *types.Var, node ast.Node) bool {
	return v.Pos() < node.Pos() || v.Pos() > node.End()
}
