// Package admission is the Engine's admission-controlled job scheduler: a
// bounded, mutex+cond-guarded priority queue with per-tenant quotas and
// per-tenant traffic statistics. It replaces the plain FIFO channel the
// Submit path used before — a FIFO with no quotas lets one tenant starve
// everyone else, which is exactly the failure mode of the multi-tenant,
// continuously-absorbing workload DPar2 is meant to serve.
//
// # Scheduling order
//
// Pop always returns the eligible ticket with the highest Priority, breaking
// ties by admission order (FIFO within a priority class, by a monotone
// per-queue sequence number). Priorities and quotas reorder and gate WHEN
// work runs, never what it computes: the queue never touches the payloads it
// carries, so results stay bit-identical for a fixed payload regardless of
// ordering.
//
// # Admission
//
// Admit gates a ticket twice. A tenant already holding MaxQueued queued
// tickets is rejected immediately with a *QuotaError (matched by
// errors.Is(err, ErrQuotaExceeded)) — an over-quota tenant never consumes a
// shared queue slot and never blocks. An in-quota admit into a full queue
// blocks (backpressure) until a slot frees, the context is done, or the
// queue closes.
//
// A tenant's MaxRunning quota is enforced at Pop time: a ticket whose tenant
// is at its running cap is skipped in favor of the best eligible ticket of
// any other tenant (the scheduler stays work-conserving — a capped tenant's
// high-priority backlog cannot idle the workers), and becomes eligible again
// the moment one of the tenant's running tickets Finishes.
//
// Quota is released on Finish (running) and on cancel-while-queued (queued):
// a context cancelled while its ticket is still queued removes the ticket,
// frees the tenant's queued slot, and invokes the onCancel callback exactly
// once — the ticket state machine under the queue lock makes pop and cancel
// mutually exclusive.
//
// # Statistics
//
// The queue keeps one TenantStats row per tenant it has seen, plus its
// high-water depth, and updates them under the queue lock in the same
// critical section as each transition (admit, reject, pop, cancel-while-
// queued, Finish), so a Stats snapshot is always consistent with the
// queue's own state. NoteCache adds the Engine's result-cache lookups to the
// same rows.
package admission

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrClosed is returned by Admit after Close. Callers translate it into
// their own closed-service error (the Engine maps it to ErrEngineClosed).
var ErrClosed = errors.New("admission: queue is closed")

// ErrQuotaExceeded is the sentinel every quota rejection matches via
// errors.Is. The concrete error is a *QuotaError carrying the tenant.
var ErrQuotaExceeded = errors.New("admission: tenant quota exceeded")

// QuotaError reports an immediate quota rejection: which tenant was over
// which limit. errors.Is(err, ErrQuotaExceeded) matches it.
type QuotaError struct {
	Tenant string // the rejected tenant
	Queued int    // tickets the tenant already had queued
	Limit  int    // the MaxQueued limit that was hit
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("admission: tenant %q over quota (%d of %d queued)",
		e.Tenant, e.Queued, e.Limit)
}

// Is matches the ErrQuotaExceeded sentinel.
func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// Quota bounds one tenant's share of the queue. A zero (or negative) field
// means unbounded on that axis — the zero value is "no quota". Layers that
// expose quotas to users should validate for positive values and reserve the
// zero value for "no quota configured" (the Engine's options panic on
// non-positive input).
type Quota struct {
	MaxQueued  int // max tickets waiting in the queue at once
	MaxRunning int // max tickets popped-but-not-Finished at once
}

// Config configures New.
type Config struct {
	// Capacity bounds the total queued tickets across all tenants; Admit
	// blocks (backpressure) when the queue is full. Must be positive.
	Capacity int
	// DefaultQuota applies to every tenant without an override. The zero
	// value means no per-tenant bounds.
	DefaultQuota Quota
	// Overrides replaces DefaultQuota for specific tenants.
	Overrides map[string]Quota
}

// ticketState is the lifecycle of a Ticket; transitions happen only under
// Queue.mu, which is what makes pop/cancel exactly-once.
type ticketState uint8

const (
	stateQueued ticketState = iota
	stateRunning
	stateCancelled
	stateDone
)

// Ticket is one admitted unit of work. A ticket is returned by Admit, handed
// to a worker by Pop, and retired by exactly one Finish call (or by the
// queue itself on cancel-while-queued).
type Ticket[T any] struct {
	// Payload is the caller's opaque work item, carried untouched.
	Payload T

	tenant   string
	priority int
	seq      uint64
	index    int // position in the heap; -1 once off it
	enqueued time.Time
	started  time.Time
	state    ticketState
	q        *Queue[T]
	ctx      context.Context
	onCancel func(error)
	stop     func() bool // deregisters the cancel watcher; nil if none
}

// Queue is the scheduler. Create with New; all methods are safe for
// concurrent use.
type Queue[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond

	cfg Config

	heap    ticketHeap[T]
	seq     uint64
	tenants map[string]*tenantCount
	closed  bool

	// traffic is the per-tenant statistics table (never reaped: it is the
	// served-traffic history, not live load) and maxDepth the deepest the
	// queue has been at any admit. Both are guarded by mu.
	traffic  map[string]*TenantStats
	maxDepth int
}

// tenantCount tracks one tenant's live load. Entries are dropped as soon as
// both counts hit zero, so the map stays proportional to active tenants.
type tenantCount struct{ queued, running int }

// New builds a queue. Capacity must be positive (the queue is the
// backpressure bound; an unbounded queue would defeat admission control).
func New[T any](cfg Config) *Queue[T] {
	if cfg.Capacity <= 0 {
		panic(fmt.Sprintf("admission: New with non-positive Capacity %d", cfg.Capacity))
	}
	q := &Queue[T]{
		cfg:     cfg,
		tenants: make(map[string]*tenantCount),
		traffic: make(map[string]*TenantStats),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// quotaFor resolves the quota that applies to tenant.
func (q *Queue[T]) quotaFor(tenant string) Quota {
	if o, ok := q.cfg.Overrides[tenant]; ok {
		return o
	}
	return q.cfg.DefaultQuota
}

// counts returns (creating if needed) the live-load record for tenant.
// Callers must hold q.mu.
func (q *Queue[T]) counts(tenant string) *tenantCount {
	c := q.tenants[tenant]
	if c == nil {
		c = &tenantCount{}
		q.tenants[tenant] = c
	}
	return c
}

// reap drops the tenant record once idle. Callers must hold q.mu.
func (q *Queue[T]) reap(tenant string, c *tenantCount) {
	if c.queued == 0 && c.running == 0 {
		delete(q.tenants, tenant)
	}
}

// statsFor returns (creating if needed) the traffic row for tenant. Callers
// must hold q.mu.
func (q *Queue[T]) statsFor(tenant string) *TenantStats {
	ts := q.traffic[tenant]
	if ts == nil {
		ts = &TenantStats{Tenant: tenant}
		q.traffic[tenant] = ts
	}
	return ts
}

// Admit enqueues a ticket after per-tenant checks. It returns immediately
// with a *QuotaError (errors.Is ErrQuotaExceeded) when the tenant is at its
// MaxQueued quota, with ErrClosed when the queue is (or becomes) closed, and
// with ctx.Err() when the context dies first; otherwise it blocks only while
// the queue is at Capacity (backpressure for in-quota work).
//
// onCancel, if non-nil, is invoked exactly once with ctx.Err() if ctx is
// cancelled while the ticket is still queued: the ticket is removed and the
// tenant's queued quota released without a worker ever seeing it. Once Pop
// returns the ticket, onCancel will never be called — cancellation from then
// on is the worker's job (it holds the context in the payload).
func (q *Queue[T]) Admit(ctx context.Context, tenant string, priority int, payload T, onCancel func(error)) (*Ticket[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q.mu.Lock()
	var stopWait func() bool
	// fail is the shared unwind of every rejected admit: count the
	// rejection, drop the lock, and release the backpressure watcher.
	fail := func(err error) (*Ticket[T], error) {
		q.statsFor(tenant).Rejected++
		q.mu.Unlock()
		if stopWait != nil {
			stopWait()
		}
		return nil, err
	}
	for {
		if q.closed {
			return fail(ErrClosed)
		}
		quota := q.quotaFor(tenant)
		queued := 0
		if c := q.tenants[tenant]; c != nil {
			queued = c.queued
		}
		if quota.MaxQueued > 0 && queued >= quota.MaxQueued {
			return fail(&QuotaError{Tenant: tenant, Queued: queued, Limit: quota.MaxQueued})
		}
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if len(q.heap) < q.cfg.Capacity {
			break
		}
		// Full queue: backpressure. cond.Wait cannot observe ctx, so the
		// first wait arranges for a cancelled context to Broadcast us awake
		// (taking the lock in the callback so the wakeup cannot land between
		// the ctx.Err() check above and the Wait below).
		if stopWait == nil && ctx.Done() != nil {
			stopWait = context.AfterFunc(ctx, func() {
				q.mu.Lock()
				q.cond.Broadcast()
				q.mu.Unlock()
			})
		}
		q.cond.Wait()
	}
	tk := &Ticket[T]{
		Payload:  payload,
		tenant:   tenant,
		priority: priority,
		seq:      q.seq,
		enqueued: time.Now(),
		state:    stateQueued,
		q:        q,
		ctx:      ctx,
		onCancel: onCancel,
	}
	q.seq++
	heap.Push(&q.heap, tk)
	q.counts(tenant).queued++
	q.statsFor(tenant).Admitted++
	q.maxDepth = max(q.maxDepth, len(q.heap))
	if onCancel != nil && ctx.Done() != nil {
		// Watch for cancel-while-queued. Registering under q.mu is safe: an
		// already-done ctx runs the callback in its own goroutine, never
		// synchronously. The callback re-checks the ticket state under q.mu,
		// so a worker popping first wins and the callback is a no-op.
		tk.stop = context.AfterFunc(ctx, func() { q.cancelQueued(tk) })
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	if stopWait != nil {
		stopWait()
	}
	return tk, nil
}

// cancelQueued is the cancel-while-queued path: remove the ticket if (and
// only if) it is still queued, release the tenant's queued quota, and invoke
// onCancel. Racing a concurrent Pop is resolved by the state check under mu.
func (q *Queue[T]) cancelQueued(tk *Ticket[T]) {
	q.mu.Lock()
	if tk.state != stateQueued {
		q.mu.Unlock()
		return
	}
	heap.Remove(&q.heap, tk.index)
	tk.state = stateCancelled
	c := q.tenants[tk.tenant]
	c.queued--
	q.reap(tk.tenant, c)
	ts := q.statsFor(tk.tenant)
	ts.Cancelled++
	ts.QueueWait += time.Since(tk.enqueued)
	q.cond.Broadcast() // a Capacity slot freed
	q.mu.Unlock()
	tk.onCancel(tk.ctx.Err())
}

// Pop blocks until a ticket is eligible to run (its tenant under MaxRunning)
// and returns it, or returns ok=false once the queue is closed and fully
// drained — the worker-loop exit condition. The popped ticket counts against
// its tenant's running quota until Finish.
func (q *Queue[T]) Pop() (tk *Ticket[T], ok bool) {
	q.mu.Lock()
	for {
		if tk := q.popEligible(); tk != nil {
			tk.state = stateRunning
			tk.started = time.Now()
			c := q.tenants[tk.tenant]
			c.queued--
			c.running++
			ts := q.statsFor(tk.tenant)
			ts.Started++
			ts.QueueWait += tk.started.Sub(tk.enqueued)
			stop := tk.stop
			tk.stop = nil
			q.cond.Broadcast() // a Capacity slot freed
			q.mu.Unlock()
			if stop != nil {
				stop() // the cancel watcher's job is done; release it
			}
			return tk, true
		}
		if q.closed && len(q.heap) == 0 {
			q.mu.Unlock()
			return nil, false
		}
		// Empty, or no ticket is poppable: wait for an Admit or a Finish.
		// No lost-wakeup deadlock: a non-empty heap with nothing poppable
		// holds only tickets whose tenants have running > 0, so a Finish
		// (and its Broadcast) is pending.
		q.cond.Wait()
	}
}

// popEligible removes and returns the best eligible ticket, or nil. Callers
// must hold q.mu.
func (q *Queue[T]) popEligible() *Ticket[T] {
	if len(q.heap) == 0 {
		return nil
	}
	// Fast path: the strict head of the priority order is eligible.
	if q.eligible(q.heap[0]) {
		return heap.Pop(&q.heap).(*Ticket[T])
	}
	// Some tenant is at MaxRunning: take the best eligible ticket under the
	// same (priority, seq) order. Linear scan — the heap is bounded by
	// Capacity and this path only runs while a running quota is saturated.
	best := -1
	for i, t := range q.heap {
		if !q.eligible(t) {
			continue
		}
		if best < 0 || beats(t, q.heap[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return heap.Remove(&q.heap, best).(*Ticket[T])
}

// eligible reports whether the ticket may be popped: its tenant is under
// its running cap. Callers must hold q.mu.
func (q *Queue[T]) eligible(tk *Ticket[T]) bool {
	quota := q.quotaFor(tk.tenant)
	if quota.MaxRunning <= 0 {
		return true
	}
	c := q.tenants[tk.tenant]
	return c == nil || c.running < quota.MaxRunning
}

// Finish retires a popped ticket: the tenant's running quota is released
// (waking Pops blocked on it) and the run latency added to the tenant's
// stats. Exactly one Finish per popped ticket; err is the job's outcome
// (nil counts as Completed, non-nil as Failed).
func (t *Ticket[T]) Finish(err error) {
	q := t.q
	q.mu.Lock()
	if t.state != stateRunning {
		q.mu.Unlock()
		panic("admission: Finish on a ticket that is not running")
	}
	t.state = stateDone
	c := q.tenants[t.tenant]
	c.running--
	q.reap(t.tenant, c)
	ts := q.statsFor(t.tenant)
	if err == nil {
		ts.Completed++
	} else {
		ts.Failed++
	}
	ts.RunTime += time.Since(t.started)
	q.cond.Broadcast() // a MaxRunning slot freed
	q.mu.Unlock()
}

// Close stops admission: every Admit from now on — including ones blocked on
// backpressure — fails with ErrClosed, while already-admitted tickets keep
// draining through Pop (Pop reports ok=false only once the queue is empty).
// Close is idempotent and returns without waiting for the drain.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Depth reports the current number of queued tickets.
func (q *Queue[T]) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// TenantLoad reports one tenant's live load (queued and running tickets).
func (q *Queue[T]) TenantLoad(tenant string) (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if c := q.tenants[tenant]; c != nil {
		return c.queued, c.running
	}
	return 0, 0
}

// NoteCache counts one result-cache lookup for tenant: a hit served the
// request without running the method, a miss ran it. The queue never looks
// up the cache itself; the Engine reports each lookup here so that hits and
// misses sit in the same per-tenant rows as the queue's own counters.
func (q *Queue[T]) NoteCache(tenant string, hit bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ts := q.statsFor(tenant)
	if hit {
		ts.CacheHits++
	} else {
		ts.CacheMisses++
	}
}

// Stats returns a consistent snapshot of every tenant's traffic, sorted by
// tenant name, plus the queue's high-water depth.
func (q *Queue[T]) Stats() StatsSnapshot {
	q.mu.Lock()
	snap := StatsSnapshot{Tenants: make([]TenantStats, 0, len(q.traffic)), MaxDepth: q.maxDepth}
	for _, ts := range q.traffic {
		snap.Tenants = append(snap.Tenants, *ts)
	}
	q.mu.Unlock()
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Tenant < snap.Tenants[j].Tenant })
	return snap
}

// ----- the priority heap ----------------------------------------------------

// beats reports whether a runs before b: higher priority first, then FIFO by
// sequence number within a class.
func beats[T any](a, b *Ticket[T]) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// ticketHeap implements container/heap ordered by beats.
type ticketHeap[T any] []*Ticket[T]

func (h ticketHeap[T]) Len() int           { return len(h) }
func (h ticketHeap[T]) Less(i, j int) bool { return beats(h[i], h[j]) }
func (h ticketHeap[T]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *ticketHeap[T]) Push(x any) {
	t := x.(*Ticket[T])
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *ticketHeap[T]) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
