// Package compute is the shared compute runtime the rest of the repository
// runs on: a long-lived worker pool for all parallel phases and a
// size-bucketed workspace arena for scratch matrices.
//
// # Pool
//
// Pool owns a fixed set of worker goroutines created once (NewPool) and
// reused for every parallel region submitted to it. A region is n work
// items; the submitter and the workers claim them one at a time from a
// shared atomic cursor (Claim), so a lane that finishes early takes the next
// item instead of idling while another lane works through a fixed share.
// ParallelRanges cuts an index range into a few contiguous chunks per lane
// and claims those, ParallelFor loops over the indices of each chunk, and
// RunPartitioned claims one bucket of items at a time, so each bucket still
// runs on one lane. Callers that know their items' costs claim them
// largest first, which is the greedy rule of Algorithm 4 applied to the run
// times as they happen.
//
// Each claimer of a region has a lane number in [0, Workers()): the
// submitter is lane 0 and every helping worker takes the next free number,
// so per-lane scratch indexed by lane is never shared by two concurrent
// calls of the same region. The submitter claims items until none are left
// and then waits only for the items other lanes already claimed, never for
// a worker that has not joined: a region whose helpers are busy elsewhere
// finishes on the submitter alone. This also makes nested regions safe: a
// worker that itself calls ParallelFor on the same pool makes progress
// without waiting on anyone. The pool contributes at most width-1 worker
// goroutines; with N goroutines submitting concurrently, total compute
// concurrency is at most width-1 + N (each submitter is its own extra lane).
//
// A worker that finds no open region keeps polling for one for pollWindow,
// yielding the processor between polls, and parks only after that. Regions
// of the ALS loop last tens of microseconds and open back to back, while a
// parked worker takes tens of microseconds to wake, so a polling worker is
// what lets the second lane join them at all. Close ends polling and parked
// workers alike.
//
// A nil *Pool is valid everywhere and means "run serially"; so does a pool of
// width 1. There is one clamping rule, applied by NewPool: a width <= 0
// means serial, any positive width is taken verbatim. The repro Engine's
// pool is the single parallelism knob: every production call runs on it,
// handed down as parafac2.Config.Pool. Only direct parafac2 callers (tests
// and root benchmarks) leave Config.Pool nil, and get a transient pool of
// width Config.Threads for the call. There is no package-global
// parallelism knob and no process-wide default pool.
//
// Pool additionally implements mat.Runner, so it can be handed directly to
// the blocked matrix kernels (MulInto, TMulInto, ...) of internal/mat.
//
// # Arena
//
// Arena recycles scratch matrices through size-bucketed free lists
// (sync.Pool per power-of-two capacity class). Hot loops Get a scratch
// matrix, compute into it with the *Into kernels, and Put it back; in steady
// state an ALS iteration allocates (almost) nothing. Arena is safe for
// concurrent use; the zero value is ready to use. Shared returns a
// process-wide arena for call sites without a natural owner.
package compute

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// chunksPerLane is how many contiguous chunks ParallelRanges cuts per
	// lane. One chunk per lane leaves a lane idle whenever the two halves
	// of a region cost differently (warm-started Jacobi problems need
	// different sweep counts); a few per lane let the faster lane take the
	// slower one's tail, at one atomic claim per chunk.
	chunksPerLane = 4
	// pollWindow is how long an idle worker keeps polling for a region
	// before it parks. On a 2-core host a parked worker joined a region a
	// median ~65 µs after it opened (BenchmarkRegionJoin), longer than most
	// regions of the ALS loop last; a polling one joined within 1 µs.
	pollWindow = 100 * time.Microsecond
)

// Pool is a fixed-width worker pool. The zero value is not usable; call
// NewPool. A nil *Pool runs everything serially on the calling goroutine.
type Pool struct {
	width int

	mu     sync.Mutex
	open   []*region    // regions a worker may still join, oldest first
	nopen  atomic.Int32 // len(open), read by polling workers without mu
	parked atomic.Int32 // workers blocked on wake

	wake   chan struct{} // one token per worker to wake; a send never blocks
	quit   chan struct{}
	closed atomic.Bool
}

// region is one parallel region: n items claimed from the cursor next.
type region struct {
	fn       func(lane, i int)
	n        int64
	next     atomic.Int64 // next unclaimed item
	done     atomic.Int64 // items finished
	helpers  int          // lanes handed to workers; guarded by Pool.mu
	finished sync.WaitGroup
}

// NewPool returns a pool of width n under the one clamping rule: n <= 0
// means serial (width 1), any positive n is the width verbatim. A single
// submitter runs at most n items concurrently, counting itself. Call Close
// when done to release the worker goroutines; a pool is cheap enough to hold
// for the life of the process.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{width: n}
	if n > 1 {
		p.wake = make(chan struct{}, n-1)
		p.quit = make(chan struct{})
		// n-1 workers: the submitter is the n-th lane.
		for i := 0; i < n-1; i++ {
			go p.worker()
		}
	}
	return p
}

// worker joins open regions; between them it polls for pollWindow, then
// parks until a submitter wakes it or Close ends it.
func (p *Pool) worker() {
	for {
		if r, lane := p.join(); r != nil {
			r.run(lane)
			continue
		}
		if p.poll() {
			continue
		}
		p.parked.Add(1)
		// A region opened after the poll gave up: its submitter may have
		// read parked before the Add and sent no token.
		if p.nopen.Load() > 0 {
			p.parked.Add(-1)
			continue
		}
		select {
		case <-p.wake:
			p.parked.Add(-1)
		case <-p.quit:
			return
		}
	}
}

// poll reports whether a region opened within pollWindow. It gives up at
// once when the pool is closed.
func (p *Pool) poll() bool {
	start := time.Now()
	for time.Since(start) < pollWindow && !p.closed.Load() {
		if p.nopen.Load() > 0 {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// join hands the calling worker the oldest open region that still has an
// unclaimed item, with the worker's lane number in it. A region leaves the
// open list once it is exhausted or its last helper lane is taken.
func (p *Pool) join() (*region, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.open) > 0 {
		r := p.open[0]
		if r.next.Load() >= r.n {
			p.removeLocked(r)
			continue
		}
		r.helpers++
		if r.helpers == p.width-1 {
			p.removeLocked(r)
		}
		return r, r.helpers
	}
	return nil, 0
}

// removeLocked takes r off the open list if it is there. Caller holds p.mu.
func (p *Pool) removeLocked(r *region) {
	if i := slices.Index(p.open, r); i >= 0 {
		p.open = slices.Delete(p.open, i, i+1)
	}
	p.nopen.Store(int32(len(p.open)))
}

// signal wakes up to k parked workers.
func (p *Pool) signal(k int) {
	for k = min(k, int(p.parked.Load())); k > 0; k-- {
		select {
		case p.wake <- struct{}{}:
		default:
			return // every worker already holds a token
		}
	}
}

// run claims items of r until none are left.
func (r *region) run(lane int) {
	for {
		i := r.next.Add(1) - 1
		if i >= r.n {
			return
		}
		r.fn(lane, int(i))
		if r.done.Add(1) == r.n {
			r.finished.Done()
		}
	}
}

// Workers reports the pool width (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil || p.width < 1 {
		return 1
	}
	return p.width
}

// Close stops the worker goroutines, polling and parked. Close is
// idempotent. Work submitted after Close runs inline on the submitting
// goroutine, so a closed pool is still safe to use — just serial.
func (p *Pool) Close() {
	if p == nil || p.quit == nil {
		return
	}
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
	}
}

// Claim runs fn(lane, i) for every i in [0, n) and returns when all have
// completed. The calling goroutine (lane 0) and any workers that join
// (lanes 1 to Workers()-1) take the next unclaimed i from a shared cursor,
// so items start in index order and no two concurrent calls of fn share a
// lane. The caller waits only for items other lanes have already claimed.
func (p *Pool) Claim(n int, fn func(lane, i int)) {
	if n <= 0 {
		return
	}
	if n == 1 || p.Workers() == 1 || p.closed.Load() {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	r := &region{fn: fn, n: int64(n)}
	r.finished.Add(1)
	p.mu.Lock()
	p.open = append(p.open, r)
	p.nopen.Store(int32(len(p.open)))
	p.mu.Unlock()
	p.signal(n - 1)
	r.run(0)
	p.mu.Lock()
	p.removeLocked(r)
	p.mu.Unlock()
	r.finished.Wait()
}

// ParallelRanges cuts [0, n) into contiguous chunks, a few per lane (at
// most n), and claims them across the pool. This is the scheduling
// primitive the blocked matrix kernels use (it implements mat.Runner).
func (p *Pool) ParallelRanges(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w == 1 || n == 1 {
		fn(0, n)
		return
	}
	chunks := min(n, w*chunksPerLane)
	p.Claim(chunks, func(_, c int) { fn(c*n/chunks, (c+1)*n/chunks) })
}

// ParallelFor runs fn(i) for i in [0, n) in contiguous chunks claimed
// across the pool (ParallelRanges) — for the iteration phase, where the
// per-item cost no longer depends on I_k (Section III-F of the paper).
func (p *Pool) ParallelFor(n int, fn func(i int)) {
	p.ParallelRanges(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// RunPartitioned executes fn(item) for every item, claiming one bucket at a
// time, so each bucket's items run in order on one lane — the execution
// half of Algorithm 4's static partition (buckets from scheduler.Partition).
// fn must be safe for concurrent invocation across buckets.
func (p *Pool) RunPartitioned(buckets [][]int, fn func(item int)) {
	p.Claim(len(buckets), func(_, b int) {
		for _, it := range buckets[b] {
			fn(it)
		}
	})
}
