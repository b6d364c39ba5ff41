// Package ctxlooptest is the fixture suite for the ctxloop analyzer.
package ctxlooptest

import (
	"context"

	"compute"
)

func heavyStep(ctx context.Context, i int) error { return ctx.Err() }
func cheapStep(i int) int                        { return i * 2 }

// sweepIgnoresCtx: the ALS-sweep shape — a loop dispatching pool work with no
// per-iteration cancellation check.
func sweepIgnoresCtx(ctx context.Context, p *compute.Pool, iters int) {
	for it := 0; it < iters; it++ { // want `never observes ctx`
		p.ParallelFor(64, func(i int) {
			cheapStep(i)
		})
	}
}

// sweepChecksCtx: checking ctx.Err() each iteration is the required shape.
func sweepChecksCtx(ctx context.Context, p *compute.Pool, iters int) error {
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.ParallelFor(64, func(i int) {
			cheapStep(i)
		})
	}
	return nil
}

// sweepPassesCtx: passing ctx to a context-taking callee also observes it.
func sweepPassesCtx(ctx context.Context, iters int) error {
	for it := 0; it < iters; it++ {
		if err := heavyStep(ctx, it); err != nil {
			return err
		}
	}
	return nil
}

// heavyCalleeNoCtx: calling a ctx-taking function without consulting ctx in
// the loop is still heavy work with no cancellation.
func heavyCalleeNoCtx(ctx context.Context, iters int) {
	bg := context.Background()
	for it := 0; it < iters; it++ { // want `never observes ctx`
		_ = heavyStep(bg, it)
	}
}

// cheapLoopExempt: scalar-only loops need no per-iteration ctx check.
func cheapLoopExempt(ctx context.Context, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += cheapStep(i)
	}
	_ = ctx.Err()
	return total
}

// rangeSweep: range loops are held to the same rule.
func rangeSweep(ctx context.Context, p *compute.Pool, batches [][]float64) {
	for range batches { // want `never observes ctx`
		p.RunPartitioned(len(batches), func(part int) {})
	}
}

// claimSweep: a loop that claims work on the pool is heavy too.
func claimSweep(ctx context.Context, p *compute.Pool, iters int) {
	for it := 0; it < iters; it++ { // want `never observes ctx`
		p.Claim(64, func(lane, i int) { cheapStep(i) })
	}
}

// DecomposeCtx uses its context: the exported ...Ctx contract is satisfied.
func DecomposeCtx(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// AbsorbCtx drops its context on the floor.
func AbsorbCtx(ctx context.Context, n int) int { // want `AbsorbCtx takes a context\.Context but never uses it`
	return cheapStep(n)
}

// unexported ...Ctx helpers are not held to the exported-contract rule.
func absorbCtx(ctx context.Context, n int) int {
	return cheapStep(n)
}

// suppressedSweep: a justified unobserved loop carries a directive.
func suppressedSweep(ctx context.Context, p *compute.Pool, iters int) {
	//repro:allow(ctxloop) bounded to two warmup iterations before the cancellable main loop
	for it := 0; it < 2; it++ {
		p.ParallelFor(8, func(i int) { cheapStep(i) })
	}
	_ = ctx.Err()
}
