package admission

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newQ(t *testing.T, cfg Config) *Queue[int] {
	t.Helper()
	if cfg.Capacity == 0 {
		cfg.Capacity = 64
	}
	return New[int](cfg)
}

func mustAdmit(t *testing.T, q *Queue[int], tenant string, prio, payload int) *Ticket[int] {
	t.Helper()
	tk, err := q.Admit(context.Background(), tenant, prio, payload, nil)
	if err != nil {
		t.Fatalf("Admit(%s, prio %d): %v", tenant, prio, err)
	}
	return tk
}

// TestFIFOWithinClass: same-priority tickets pop in admission order.
func TestFIFOWithinClass(t *testing.T) {
	q := newQ(t, Config{})
	for i := 0; i < 10; i++ {
		mustAdmit(t, q, "a", 0, i)
	}
	for i := 0; i < 10; i++ {
		tk, ok := q.Pop()
		if !ok || tk.Payload != i {
			t.Fatalf("pop %d: got payload %v ok=%v, want %d", i, tk.Payload, ok, i)
		}
		tk.Finish(nil)
	}
}

// TestPriorityOrder: higher Priority pops first, FIFO inside each class.
func TestPriorityOrder(t *testing.T) {
	q := newQ(t, Config{})
	// payload encodes expected order: admitted interleaved across classes.
	mustAdmit(t, q, "a", 0, 3) // low class, first in
	mustAdmit(t, q, "b", 5, 0) // high class, first in
	mustAdmit(t, q, "a", 0, 4)
	mustAdmit(t, q, "b", 5, 1)
	mustAdmit(t, q, "c", 2, 2)
	for want := 0; want < 5; want++ {
		tk, _ := q.Pop()
		if tk.Payload != want {
			t.Fatalf("pop %d: got payload %d", want, tk.Payload)
		}
		tk.Finish(nil)
	}
}

// TestPriorityOrderProperty: for random priorities the pop sequence equals a
// stable sort by (priority desc, admission order) — the scheduler's whole
// ordering contract in one property.
func TestPriorityOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		q := New[int](Config{Capacity: n})
		type rec struct{ prio, idx int }
		recs := make([]rec, n)
		for i := range recs {
			recs[i] = rec{prio: rng.Intn(5) - 2, idx: i}
			mustAdmit(t, q, fmt.Sprintf("t%d", rng.Intn(3)), recs[i].prio, i)
		}
		want := make([]rec, n)
		copy(want, recs)
		sort.SliceStable(want, func(i, j int) bool { return want[i].prio > want[j].prio })
		for i := 0; i < n; i++ {
			tk, _ := q.Pop()
			if tk.Payload != want[i].idx {
				t.Fatalf("trial %d pop %d: got %d want %d (prios %v)",
					trial, i, tk.Payload, want[i].idx, recs)
			}
			tk.Finish(nil)
		}
	}
}

// TestQuotaMaxQueuedReject: the over-quota admit is immediate, typed, and
// carries the tenant; other tenants are unaffected.
func TestQuotaMaxQueuedReject(t *testing.T) {
	q := newQ(t, Config{DefaultQuota: Quota{MaxQueued: 2}})
	mustAdmit(t, q, "noisy", 0, 0)
	mustAdmit(t, q, "noisy", 0, 1)
	_, err := q.Admit(context.Background(), "noisy", 0, 2, nil)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota admit: err = %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "noisy" || qe.Limit != 2 {
		t.Fatalf("quota error %v must carry tenant and limit", err)
	}
	// The shared queue was not consumed: another tenant still fits.
	mustAdmit(t, q, "quiet", 0, 3)
	if d := q.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
}

// TestQuotaOverrides: the per-tenant override replaces the default quota.
func TestQuotaOverrides(t *testing.T) {
	q := newQ(t, Config{
		DefaultQuota: Quota{MaxQueued: 1},
		Overrides:    map[string]Quota{"vip": {MaxQueued: 3}},
	})
	mustAdmit(t, q, "vip", 0, 0)
	mustAdmit(t, q, "vip", 0, 1)
	mustAdmit(t, q, "vip", 0, 2)
	if _, err := q.Admit(context.Background(), "vip", 0, 3, nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("vip 4th admit: %v, want quota error", err)
	}
	mustAdmit(t, q, "std", 0, 4)
	if _, err := q.Admit(context.Background(), "std", 0, 5, nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("std 2nd admit: %v, want quota error", err)
	}
}

// TestQuotaReleasedOnFinish: a popped ticket holds its tenant's MaxRunning
// slot until Finish, and Finish wakes the Pop waiting on it.
func TestQuotaReleasedOnFinish(t *testing.T) {
	q := newQ(t, Config{DefaultQuota: Quota{MaxQueued: 8, MaxRunning: 1}})
	mustAdmit(t, q, "a", 0, 0)
	mustAdmit(t, q, "a", 0, 1)
	first, _ := q.Pop()

	second := make(chan *Ticket[int], 1)
	go func() {
		tk, _ := q.Pop()
		second <- tk
	}()
	select {
	case tk := <-second:
		t.Fatalf("second ticket %d popped while tenant at MaxRunning", tk.Payload)
	case <-time.After(50 * time.Millisecond):
	}
	first.Finish(nil)
	select {
	case tk := <-second:
		if tk.Payload != 1 {
			t.Fatalf("second pop: payload %d", tk.Payload)
		}
		tk.Finish(nil)
	case <-time.After(5 * time.Second):
		t.Fatal("Finish did not wake the blocked Pop")
	}
}

// TestQuotaReleasedOnCancelWhileQueued: cancelling a queued ticket's context
// invokes onCancel exactly once, releases the queued quota, and lets the
// tenant admit again.
func TestQuotaReleasedOnCancelWhileQueued(t *testing.T) {
	q := newQ(t, Config{DefaultQuota: Quota{MaxQueued: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	if _, err := q.Admit(ctx, "a", 0, 0, func(err error) { got <- err }); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Admit(context.Background(), "a", 0, 1, nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second admit while first queued: %v", err)
	}
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("onCancel err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onCancel never invoked")
	}
	// Quota is released: the tenant fits again, and the cancelled ticket is
	// gone from the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := q.Admit(context.Background(), "a", 0, 2, nil); err == nil {
			break
		} else if !errors.Is(err, ErrQuotaExceeded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("quota never released after cancel-while-queued")
		}
		time.Sleep(time.Millisecond)
	}
	tk, _ := q.Pop()
	if tk.Payload != 2 {
		t.Fatalf("pop after cancel: payload %d, want 2 (cancelled ticket must not run)", tk.Payload)
	}
	tk.Finish(nil)
}

// TestBackpressureBlocksAndUnblocks: a full queue blocks in-quota admits;
// a Pop frees the slot.
func TestBackpressureBlocksAndUnblocks(t *testing.T) {
	q := New[int](Config{Capacity: 1})
	mustAdmit(t, q, "a", 0, 0)

	admitted := make(chan error, 1)
	go func() {
		_, err := q.Admit(context.Background(), "b", 0, 1, nil)
		admitted <- err
	}()
	select {
	case err := <-admitted:
		t.Fatalf("admit into a full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	tk, _ := q.Pop()
	if err := <-admitted; err != nil {
		t.Fatalf("backpressured admit after Pop: %v", err)
	}
	tk.Finish(nil)
}

// TestBackpressureCancelled: a context dying during the capacity wait
// returns ctx.Err (and counts as a rejection, not an admission).
func TestBackpressureCancelled(t *testing.T) {
	q := New[int](Config{Capacity: 1})
	mustAdmit(t, q, "a", 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	admitted := make(chan error, 1)
	go func() {
		_, err := q.Admit(ctx, "b", 0, 1, nil)
		admitted <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-admitted:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled backpressure wait never returned")
	}
	if b := q.Stats().Tenant("b"); b.Rejected != 1 || b.Admitted != 0 {
		t.Fatalf("tenant b stats = %+v, want 1 rejection", b)
	}
}

// TestCloseSemantics: Close fails blocked and future admits with ErrClosed,
// drains the backlog through Pop, then reports done.
func TestCloseSemantics(t *testing.T) {
	q := New[int](Config{Capacity: 1})
	mustAdmit(t, q, "a", 0, 0)
	blocked := make(chan error, 1)
	go func() {
		_, err := q.Admit(context.Background(), "b", 0, 1, nil)
		blocked <- err
	}()
	time.Sleep(20 * time.Millisecond)
	q.Close()
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked admit after Close: %v, want ErrClosed", err)
	}
	if _, err := q.Admit(context.Background(), "c", 0, 2, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("admit after Close: %v, want ErrClosed", err)
	}
	tk, ok := q.Pop()
	if !ok || tk.Payload != 0 {
		t.Fatalf("drain pop: payload %v ok=%v", tk.Payload, ok)
	}
	tk.Finish(nil)
	if tk, ok := q.Pop(); ok {
		t.Fatalf("Pop after drain returned ticket %d", tk.Payload)
	}
}

// TestMaxRunningIsWorkConserving: a capped tenant's high-priority backlog
// does not idle the workers — lower-priority tickets of other tenants run —
// and the capped ticket still beats them the moment its quota frees.
func TestMaxRunningIsWorkConserving(t *testing.T) {
	q := newQ(t, Config{Overrides: map[string]Quota{"capped": {MaxRunning: 1}}})
	mustAdmit(t, q, "capped", 9, 0)
	running, _ := q.Pop() // capped tenant now at MaxRunning
	if running.Payload != 0 {
		t.Fatalf("first pop: payload %d", running.Payload)
	}
	mustAdmit(t, q, "capped", 9, 1) // high priority but ineligible
	mustAdmit(t, q, "other", 1, 2)
	mustAdmit(t, q, "other", 0, 3)

	tk, _ := q.Pop()
	if tk.Payload != 2 {
		t.Fatalf("work conservation: popped %d, want 2 (best eligible)", tk.Payload)
	}
	running.Finish(nil) // frees the capped tenant
	tk2, _ := q.Pop()
	if tk2.Payload != 1 {
		t.Fatalf("after quota release: popped %d, want the capped tenant's high-priority 1", tk2.Payload)
	}
	tk.Finish(nil)
	tk2.Finish(nil)
}

// TestMetricsCounters: the queue's stats count admit/reject/start/finish/
// cancel with consistent counts and depths.
func TestMetricsCounters(t *testing.T) {
	q := New[int](Config{Capacity: 8, DefaultQuota: Quota{MaxQueued: 2}})
	mustAdmit(t, q, "a", 1, 0)
	mustAdmit(t, q, "a", 0, 1)
	if _, err := q.Admit(context.Background(), "a", 0, 2, nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	if _, err := q.Admit(ctx, "b", 0, 3, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	tk, _ := q.Pop()
	tk.Finish(nil)
	tk, _ = q.Pop()
	tk.Finish(errors.New("boom"))

	stats := q.Stats()
	a := stats.Tenant("a")
	if a.Admitted != 2 || a.Rejected != 1 || a.Started != 2 || a.Completed != 1 || a.Failed != 1 {
		t.Fatalf("tenant a stats = %+v", a)
	}
	b := stats.Tenant("b")
	if b.Admitted != 1 || b.Cancelled != 1 || b.Started != 0 {
		t.Fatalf("tenant b stats = %+v", b)
	}
	if d := stats.MaxDepth; d < 2 || d > 3 {
		t.Fatalf("max depth = %d, want 2..3", d)
	}
	if s := stats.String(); s == "" {
		t.Fatal("StatsSnapshot.String empty")
	}
}

// TestPopCancelExactlyOnce hammers the pop-vs-cancel race: for every ticket
// exactly one of {worker runs it, onCancel fires} happens.
func TestPopCancelExactlyOnce(t *testing.T) {
	const n = 400
	q := New[int](Config{Capacity: n})
	var ran, cancelled atomic.Int64
	seen := make([]atomic.Int32, n)

	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				tk, ok := q.Pop()
				if !ok {
					return
				}
				if seen[tk.Payload].Add(1) != 1 {
					t.Errorf("ticket %d delivered twice", tk.Payload)
				}
				ran.Add(1)
				tk.Finish(nil)
			}
		}()
	}

	var producers sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		producers.Add(1)
		go func() {
			defer producers.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := q.Admit(ctx, fmt.Sprintf("t%d", i%5), i%3, i, func(error) {
				if seen[i].Add(1) != 1 {
					t.Errorf("ticket %d delivered twice", i)
				}
				cancelled.Add(1)
			})
			if err != nil {
				t.Errorf("admit %d: %v", i, err)
				return
			}
			if i%2 == 0 {
				cancel() // race the workers
			}
		}()
	}
	producers.Wait()
	// Let in-flight cancels land, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for ran.Load()+cancelled.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d+%d of %d", ran.Load(), cancelled.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	q.Close()
	workers.Wait()
	if got := ran.Load() + cancelled.Load(); got != n {
		t.Fatalf("ran %d + cancelled %d != %d", ran.Load(), cancelled.Load(), n)
	}
}

// TestConcurrentStress: many tenants, priorities, quotas, cancels, and
// workers at once — the accounting invariants hold and nothing deadlocks.
// Run with -race.
func TestConcurrentStress(t *testing.T) {
	q := New[int](Config{
		Capacity:     16,
		DefaultQuota: Quota{MaxQueued: 6, MaxRunning: 2},
	})
	const producers, perProducer = 8, 40
	var done atomic.Int64

	var workers sync.WaitGroup
	for w := 0; w < 3; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				tk, ok := q.Pop()
				if !ok {
					return
				}
				time.Sleep(time.Duration(tk.Payload%3) * 100 * time.Microsecond)
				tk.Finish(nil)
				done.Add(1)
			}
		}()
	}

	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		prod.Add(1)
		go func() {
			defer prod.Done()
			tenant := fmt.Sprintf("t%d", p%4)
			for i := 0; i < perProducer; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				_, err := q.Admit(ctx, tenant, i%4, p*perProducer+i, func(error) { done.Add(1) })
				switch {
				case err == nil:
					if i%7 == 0 {
						cancel()
					}
				case errors.Is(err, ErrQuotaExceeded):
					done.Add(1) // rejected counts as resolved
					time.Sleep(200 * time.Microsecond)
				default:
					t.Errorf("admit: %v", err)
				}
				defer cancel()
			}
		}()
	}
	prod.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for done.Load() < producers*perProducer {
		if time.Now().After(deadline) {
			t.Fatalf("resolved %d of %d", done.Load(), producers*perProducer)
		}
		time.Sleep(time.Millisecond)
	}
	q.Close()
	workers.Wait()
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth %d after drain", d)
	}
	for _, ts := range q.Stats().Tenants {
		if ts.Admitted != ts.Started+ts.Cancelled {
			t.Fatalf("tenant %s: admitted %d != started %d + cancelled %d",
				ts.Tenant, ts.Admitted, ts.Started, ts.Cancelled)
		}
		if ts.Started != ts.Completed+ts.Failed {
			t.Fatalf("tenant %s: started %d != completed %d + failed %d",
				ts.Tenant, ts.Started, ts.Completed, ts.Failed)
		}
	}
}

// TestDepthAndTenantLoad: the introspection accessors track the lifecycle.
func TestDepthAndTenantLoad(t *testing.T) {
	q := newQ(t, Config{})
	mustAdmit(t, q, "a", 0, 0)
	mustAdmit(t, q, "a", 0, 1)
	if queued, running := q.TenantLoad("a"); queued != 2 || running != 0 {
		t.Fatalf("load = %d/%d", queued, running)
	}
	tk, _ := q.Pop()
	if queued, running := q.TenantLoad("a"); queued != 1 || running != 1 {
		t.Fatalf("load after pop = %d/%d", queued, running)
	}
	tk.Finish(nil)
	if queued, running := q.TenantLoad("a"); queued != 1 || running != 0 {
		t.Fatalf("load after finish = %d/%d", queued, running)
	}
	if d := q.Depth(); d != 1 {
		t.Fatalf("depth = %d", d)
	}
}

// TestNewValidation: a non-positive capacity is a programmer error.
func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with Capacity 0 must panic")
		}
	}()
	New[int](Config{Capacity: 0})
}
