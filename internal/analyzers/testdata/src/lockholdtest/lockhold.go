// Package lockholdtest is the fixture suite for the lockhold analyzer.
package lockholdtest

import (
	"sync"

	"compute"
)

type task struct{ id int }

// engine reproduces the pre-admission-control Submit shape: a queue channel
// guarded by a mutex.
type engine struct {
	mu    sync.Mutex
	queue chan task
	n     int
}

// submitHoldingLock is the historical deadlock: holding e.mu while sending to
// a possibly-full queue stalls every other Submit and the drain worker.
func (e *engine) submitHoldingLock(t task) {
	e.mu.Lock()
	e.n++
	e.queue <- t // want `channel send while holding e\.mu`
	e.mu.Unlock()
}

// submitUnlockFirst is the fixed shape: leave the critical section, then send.
func (e *engine) submitUnlockFirst(t task) {
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
	e.queue <- t
}

// submitDeferUnlock: a deferred Unlock keeps the lock to function exit, so
// the send still happens under the lock.
func (e *engine) submitDeferUnlock(t task) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	e.queue <- t // want `channel send while holding e\.mu`
}

// receiveHoldingLock: a receive blocks the same way a send does.
func (e *engine) receiveHoldingLock() task {
	e.mu.Lock()
	defer e.mu.Unlock()
	return <-e.queue // want `channel receive while holding e\.mu`
}

// selectNoDefaultHoldingLock: a select without default parks under the lock.
func (e *engine) selectNoDefaultHoldingLock(stop chan struct{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select { // want `select with no default clause while holding e\.mu`
	case t := <-e.queue:
		e.n += t.id
	case <-stop:
	}
}

// selectWithDefaultOK: a default clause makes the select non-blocking.
func (e *engine) selectWithDefaultOK() {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case t := <-e.queue:
		e.n += t.id
	default:
	}
}

// dispatchHoldingLock: a blocking pool dispatch parks until workers finish —
// workers that may need the same lock.
func (e *engine) dispatchHoldingLock(p *compute.Pool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p.ParallelFor(e.n, func(i int) {}) // want `blocking compute\.Pool dispatch while holding e\.mu`
}

// claimHoldingLock: claiming work on the pool waits for the claimed items,
// which other lanes may run under the same lock.
func (e *engine) claimHoldingLock(p *compute.Pool) {
	e.mu.Lock()
	p.Claim(e.n, func(lane, i int) {}) // want `blocking compute\.Pool dispatch while holding e\.mu`
	e.mu.Unlock()
}

// waitHoldingLock: WaitGroup.Wait under a lock pins it for the full drain.
func (e *engine) waitHoldingLock(wg *sync.WaitGroup) {
	e.mu.Lock()
	wg.Wait() // want `sync\.WaitGroup\.Wait while holding e\.mu`
	e.mu.Unlock()
}

// waitAfterUnlock is the fixed Close shape.
func (e *engine) waitAfterUnlock(wg *sync.WaitGroup) {
	e.mu.Lock()
	e.n = 0
	e.mu.Unlock()
	wg.Wait()
}

// queueLike reproduces the admission queue: a cond bound to its own mutex.
type queueLike struct {
	mu    sync.Mutex
	cond  *sync.Cond
	other sync.Mutex
	items []task
}

func newQueueLike() *queueLike {
	q := &queueLike{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// popOwnLock: cond.Wait under the lock the cond was built over is THE
// correct pattern (Wait atomically unlocks q.mu while parked).
func (q *queueLike) popOwnLock() task {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		q.cond.Wait()
	}
	t := q.items[0]
	q.items = q.items[1:]
	return t
}

// popForeignLock: waiting while holding a DIFFERENT lock sleeps with that
// lock pinned — Wait only releases the cond's own lock.
func (q *queueLike) popForeignLock() {
	q.other.Lock()
	q.cond.Wait() // want `sync\.Cond\.Wait bound to a DIFFERENT lock`
	q.other.Unlock()
}

// rlockAcrossSend: read locks count too.
type rwGuard struct {
	mu sync.RWMutex
	ch chan int
}

func (g *rwGuard) rlockAcrossSend(v int) {
	g.mu.RLock()
	g.ch <- v // want `channel send while holding g\.mu`
	g.mu.RUnlock()
}

func (g *rwGuard) runlockFirst(v int) {
	g.mu.RLock()
	g.mu.RUnlock()
	g.ch <- v
}

// suppressedSend: a justified send under lock carries a directive.
func (e *engine) suppressedSend(t task) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queue <- t //repro:allow(lockhold) queue is buffered to capacity n and n is bounded under this same lock, so the send never blocks
}

// rangeChanHoldingLock: ranging over a channel receives on every iteration,
// so the loop head blocks under the lock just as a <- does.
func (e *engine) rangeChanHoldingLock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for t := range e.queue { // want `channel receive while holding e\.mu`
		e.n += t.id
	}
}

// suppressedRange: a justified drain under lock carries a directive.
func (e *engine) suppressedRange() {
	e.mu.Lock()
	defer e.mu.Unlock()
	//repro:allow(lockhold) the queue is closed before this drain runs, so the range never parks
	for t := range e.queue {
		e.n += t.id
	}
}

// sendInCalledLiteral: a literal called on the spot runs under the caller's
// lock, so its send blocks with e.mu held.
func (e *engine) sendInCalledLiteral(t task) {
	e.mu.Lock()
	func() {
		e.queue <- t // want `channel send while holding e\.mu`
	}()
	e.mu.Unlock()
}

// scopedLockInCalledLiteral: the literal's deferred Unlock runs when the
// literal returns, so the send after the call is outside the lock.
func (e *engine) scopedLockInCalledLiteral(t task) {
	func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.n++
	}()
	e.queue <- t
}
