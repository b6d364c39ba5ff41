// Interprocedural ctxloop cases: context observation and loop heaviness
// resolved through the summary table.
package ctxlooptest

import (
	"context"

	"compute"
)

// stepObserving checks its context; handing ctx to it IS observation.
func stepObserving(ctx context.Context, p *compute.Pool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.Claim(4, func(lane, i int) {})
	return nil
}

// stepIgnoring takes a context and provably ignores it.
func stepIgnoring(_ctx context.Context, p *compute.Pool) {
	p.Claim(4, func(lane, i int) {})
}

// sweepDelegated: ctx observed one call deep — no finding.
func sweepDelegated(ctx context.Context, p *compute.Pool, iters int) error {
	for i := 0; i < iters; i++ {
		if err := stepObserving(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

// sweepIgnoredDownstream: every iteration hands ctx to a callee whose summary
// says it never observes a context — cancellation cannot take effect.
func sweepIgnoredDownstream(ctx context.Context, p *compute.Pool, iters int) {
	for i := 0; i < iters; i++ { // want `never observes ctx`
		stepIgnoring(ctx, p)
	}
}

// PumpCtx advertises cancellation but delivers ctx only to an ignoring
// callee: a hollow ...Ctx promise one call deep.
func PumpCtx(ctx context.Context, p *compute.Pool) { // want `passes its context only to callees that never observe a context`
	stepIgnoring(ctx, p)
}

// blockingHelper may block via the pool dispatch; its summary makes loops
// that call it heavy even though the loop body itself looks cheap.
func blockingHelper(p *compute.Pool) {
	p.Claim(4, func(lane, i int) {})
}

func sweepHeavyViaHelper(ctx context.Context, p *compute.Pool, iters int) {
	for i := 0; i < iters; i++ { // want `never observes ctx`
		blockingHelper(p)
	}
}

// pollHelper never waits: its select has a default clause.
func pollHelper(done chan struct{}) {
	select {
	case <-done:
	default:
	}
}

// sweepPolling only polls in its loop, which is cheap work: no ctx check is
// needed per iteration.
func sweepPolling(ctx context.Context, done chan struct{}, iters int) {
	for i := 0; i < iters; i++ {
		pollHelper(done)
	}
}
