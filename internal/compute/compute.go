// Package compute is the shared compute runtime the rest of the repository
// runs on: a long-lived worker pool for all parallel phases and a
// size-bucketed workspace arena for scratch matrices.
//
// # Pool
//
// Pool owns a fixed set of worker goroutines created once (NewPool) and
// reused for every parallel region submitted to it — the per-call goroutine
// spawning the seed did (one wg.Add/go per chunk per matrix multiply, per ALS
// phase, per iteration) is gone. Work is expressed as either a task list
// (Do), an index range split into contiguous chunks (ParallelRanges,
// ParallelFor), or the greedy slice partition of Algorithm 4
// (RunPartitioned, with buckets from scheduler.Partition).
//
// Submission never blocks: the submitting goroutine always participates,
// running tasks itself and helping drain the queue while it waits. This
// makes nested parallelism safe — a pool worker that itself calls
// ParallelFor on the same pool makes progress instead of deadlocking. The
// pool contributes at most width-1 worker goroutines; with N goroutines
// submitting concurrently, total compute concurrency is at most
// width-1 + N (each submitter is its own extra lane).
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

import "sync/atomic"

// Pool is a fixed-width worker pool. The zero value is not usable; call
// NewPool. A nil *Pool runs everything serially on the calling goroutine.
type Pool struct {
	width  int
	tasks  chan func()
	quit   chan struct{}
	closed atomic.Bool
}

// NewPool returns a pool of width n under the one clamping rule: n <= 0
// means serial (width 1), any positive n is the width verbatim. A single
// submitter runs at most n tasks concurrently, counting itself. Call Close
// when done to release the worker goroutines; a pool is cheap enough to hold
// for the life of the process.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{width: n}
	if n > 1 {
		p.tasks = make(chan func(), 4*n)
		p.quit = make(chan struct{})
		// n-1 workers: the submitter is the n-th lane.
		for i := 0; i < n-1; i++ {
			go p.worker()
		}
	}
	return p
}

func (p *Pool) worker() {
	for {
		select {
		case f := <-p.tasks:
			f()
		case <-p.quit:
			// Drain anything already queued so no submitted task is lost.
			for {
				select {
				case f := <-p.tasks:
					f()
				default:
					return
				}
			}
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

// Close stops the worker goroutines. Close is idempotent. Work submitted
// after Close runs inline on the submitting goroutine, so a closed pool is
// still safe to use — just serial.
func (p *Pool) Close() {
	if p == nil || p.quit == nil {
		return
	}
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
	}
}

// Do runs every task and returns when all have completed. The submitting
// goroutine participates: it runs the first task itself and then *helps
// drain the queue* until its batch is done, so nested submission (a pool
// task calling Do on the same pool) makes progress instead of deadlocking,
// and a batch never waits on a queue nobody is reading.
func (p *Pool) Do(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	if p == nil || p.tasks == nil || p.closed.Load() || len(tasks) == 1 {
		for _, f := range tasks {
			f()
		}
		return
	}
	remaining := int64(len(tasks))
	batchDone := make(chan struct{})
	finish := func() {
		if atomic.AddInt64(&remaining, -1) == 0 {
			close(batchDone)
		}
	}
	for _, f := range tasks[1:] {
		f := f
		wrapped := func() {
			defer finish()
			f()
		}
		select {
		case p.tasks <- wrapped:
		default:
			wrapped() // queue full: run inline rather than block
		}
	}
	func() {
		defer finish()
		tasks[0]()
	}()
	// Help until the batch completes. Draining may execute tasks from
	// other batches (harmless: they are self-contained funcs); it
	// guarantees someone is always consuming the queue.
	for {
		select {
		case <-batchDone:
			return
		case g := <-p.tasks:
			g()
		}
	}
}

// ParallelRanges splits [0, n) into at most Workers() contiguous chunks and
// runs fn on each. This is the scheduling primitive the blocked matrix
// kernels use (it implements mat.Runner).
func (p *Pool) ParallelRanges(n int, fn func(lo, hi int)) {
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + w - 1) / w
	tasks := make([]func(), 0, w)
	for lo := 0; lo < n; lo += chunk {
		lo := lo
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		tasks = append(tasks, func() { fn(lo, hi) })
	}
	p.Do(tasks...)
}

// ParallelFor runs fn(i) for i in [0, n), contiguously chunked across the
// pool — the uniform allocation Section III-F of the paper uses for the
// iteration phase, where per-item cost no longer depends on I_k.
func (p *Pool) ParallelFor(n int, fn func(i int)) {
	p.ParallelRanges(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// RunPartitioned executes fn(item) for every item, with each bucket's items
// processed sequentially by one task — the execution half of the Algorithm 4
// load balancing (buckets come from scheduler.Partition). fn must be safe
// for concurrent invocation across buckets.
func (p *Pool) RunPartitioned(buckets [][]int, fn func(item int)) {
	tasks := make([]func(), 0, len(buckets))
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		items := b
		tasks = append(tasks, func() {
			for _, it := range items {
				fn(it)
			}
		})
	}
	p.Do(tasks...)
}
