package compute

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
)

// TestClaimRunsEveryIndexOnce: at every width from 1 to 8, Claim calls fn
// exactly once per index, always with a lane in [0, Workers()).
func TestClaimRunsEveryIndexOnce(t *testing.T) {
	for width := 1; width <= 8; width++ {
		p := NewPool(width)
		for _, n := range []int{0, 1, 2, 37, 500} {
			seen := make([]atomic.Int32, n)
			var badLane atomic.Int32
			badLane.Store(-1)
			p.Claim(n, func(lane, i int) {
				if lane < 0 || lane >= p.Workers() {
					badLane.Store(int32(lane))
				}
				seen[i].Add(1)
			})
			if l := badLane.Load(); l != -1 {
				t.Fatalf("width=%d n=%d: lane %d outside [0, %d)", width, n, l, p.Workers())
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("width=%d n=%d: index %d ran %d times", width, n, i, c)
				}
			}
		}
		p.Close()
	}
}

// TestClaimLanesNeverShared: no two calls of one region that run at the
// same time hold the same lane, so per-lane scratch is never shared. Each
// call marks its lane in use and fails if the mark was already set; several
// submitters share the pool, each with its own marks.
func TestClaimLanesNeverShared(t *testing.T) {
	for _, width := range []int{2, 3, 4, 8} {
		p := NewPool(width)
		var wg sync.WaitGroup
		var clashes atomic.Int64
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for region := 0; region < 50; region++ {
					inUse := make([]atomic.Bool, p.Workers())
					p.Claim(64, func(lane, i int) {
						if !inUse[lane].CompareAndSwap(false, true) {
							clashes.Add(1)
							return
						}
						for j := 0; j < 200; j++ {
							if j%50 == 0 {
								runtime.Gosched()
							}
						}
						inUse[lane].Store(false)
					})
				}
			}()
		}
		wg.Wait()
		p.Close()
		if c := clashes.Load(); c != 0 {
			t.Fatalf("width=%d: %d calls ran on a lane already in use", width, c)
		}
	}
}

// TestClaimFinishesWhileHelperIsHeld: with the pool's only worker held in a
// long item of another region, a new region runs entirely on its submitter
// (lane 0) and returns without waiting for the worker.
func TestClaimFinishesWhileHelperIsHeld(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	held, release := make(chan struct{}), make(chan struct{})
	other := make(chan struct{})
	go func() {
		defer close(other)
		// Lane 0 waits until the worker holds item 1, so the worker is the
		// one held.
		p.Claim(2, func(lane, i int) {
			if lane == 0 {
				<-held
				return
			}
			close(held)
			<-release
		})
	}()
	<-held

	finished := make(chan []int, 1)
	go func() {
		lanes := make([]int, 50)
		p.Claim(len(lanes), func(lane, i int) { lanes[i] = lane })
		finished <- lanes
	}()
	select {
	case lanes := <-finished:
		for i, l := range lanes {
			if l != 0 {
				t.Fatalf("item %d ran on lane %d while the only worker was held", i, l)
			}
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a region waited for a worker that never joined it")
	}
	close(release)
	<-other
}

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatal("nil pool width should be 1")
	}
	n := 0
	p.ParallelFor(5, func(i int) { n++ })
	if n != 5 {
		t.Fatalf("nil pool ran %d of 5", n)
	}
	p.Close() // must not panic
}

func TestParallelForExecutesAll(t *testing.T) {
	for _, width := range []int{1, 2, 4, 100} {
		p := NewPool(width)
		var count int64
		p.ParallelFor(37, func(i int) { atomic.AddInt64(&count, 1) })
		if count != 37 {
			t.Fatalf("width=%d executed %d of 37", width, count)
		}
		// n=0 must not hang or call fn.
		p.ParallelFor(0, func(i int) { t.Fatal("called for n=0") })
		p.Close()
	}
}

func TestParallelRangesCoversDisjointly(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	seen := make([]int32, 103)
	p.ParallelRanges(103, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestRunPartitionedExecutesAll(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	buckets := [][]int{{0, 3, 5}, {}, {1}, {2, 4, 6, 7}}
	var sum int64
	var count int64
	p.RunPartitioned(buckets, func(item int) {
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&sum, int64(item))
	})
	if count != 8 || sum != 28 {
		t.Fatalf("count=%d sum=%d", count, sum)
	}
}

func TestNestedSubmissionDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var count int64
	// Each outer task submits more work to the same pool; with two lanes
	// the inner submissions must degrade to inline execution, not block.
	p.ParallelFor(8, func(i int) {
		p.ParallelFor(8, func(j int) { atomic.AddInt64(&count, 1) })
	})
	if count != 64 {
		t.Fatalf("ran %d of 64 nested tasks", count)
	}
}

// TestClosedPoolRunsInline: after Close every region, nested ones
// included, runs on its submitter alone, in index order on lane 0.
func TestClosedPoolRunsInline(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	var n int64
	p.ParallelFor(10, func(i int) { atomic.AddInt64(&n, 1) })
	if n != 10 {
		t.Fatalf("closed pool ran %d of 10", n)
	}
	var order []int
	p.Claim(4, func(lane, i int) {
		if lane != 0 {
			t.Fatalf("closed pool ran item %d on lane %d", i, lane)
		}
		p.Claim(3, func(lane, j int) {
			if lane != 0 {
				t.Fatalf("closed pool ran nested item %d on lane %d", j, lane)
			}
			order = append(order, 3*i+j)
		})
	})
	for k, v := range order {
		if v != k {
			t.Fatalf("closed pool ran nested items in order %v", order)
		}
	}
	if len(order) != 12 {
		t.Fatalf("closed pool ran %d of 12 nested items", len(order))
	}
}

// TestCloseEndsPollingWorkers: Close ends workers that are still polling
// for a region (right after one finished) as well as parked ones, so the
// goroutine count returns to what it was before NewPool.
func TestCloseEndsPollingWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, wait := range []time.Duration{0, 10 * pollWindow} {
		p := NewPool(4)
		p.ParallelFor(100, func(int) {})
		time.Sleep(wait) // 0: workers still poll; 10 windows: parked
		p.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("after Close (idle %v): %d goroutines, %d before NewPool", wait, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestPoolSharedAcrossGoroutines(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ParallelFor(100, func(i int) { atomic.AddInt64(&total, 1) })
		}()
	}
	wg.Wait()
	if total != 800 {
		t.Fatalf("concurrent submitters ran %d of 800", total)
	}
}

func TestArenaRecyclesBacking(t *testing.T) {
	var a Arena
	m := a.GetUninit(10, 10)
	m.Data[0] = 42
	base := &m.Data[:cap(m.Data)][0]
	a.Put(m)
	m2 := a.Get(10, 10)
	if &m2.Data[:cap(m2.Data)][0] != base {
		t.Skip("sync.Pool did not hand the buffer back (GC ran); nothing to assert")
	}
	if m2.Data[0] != 0 {
		t.Fatal("Get must return zeroed scratch")
	}
}

func TestArenaShapes(t *testing.T) {
	var a Arena
	for _, s := range [][2]int{{1, 1}, {3, 7}, {64, 1}, {100, 88}, {1, 4096}} {
		m := a.Get(s[0], s[1])
		if m.Rows != s[0] || m.Cols != s[1] || len(m.Data) != s[0]*s[1] {
			t.Fatalf("bad shape %dx%d: got %dx%d len %d", s[0], s[1], m.Rows, m.Cols, len(m.Data))
		}
		for _, v := range m.Data {
			if v != 0 {
				t.Fatal("Get returned non-zero scratch")
			}
		}
		a.Put(m)
	}
}

func TestArenaPutForeignMatrixIsDropped(t *testing.T) {
	var a Arena
	m := mat.New(3, 3) // cap 9: not a bucket size, must not be recycled
	a.Put(m, nil)      // nil must be tolerated too
	got := a.Get(3, 3)
	if len(got.Data) != 9 {
		t.Fatal("bad shape from arena after foreign Put")
	}
}

func TestArenaConcurrent(t *testing.T) {
	var a Arena
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := a.Get(1+g, 17)
				for j := range m.Data {
					m.Data[j] = float64(g)
				}
				a.Put(m)
			}
		}(g)
	}
	wg.Wait()
}

func TestNewPoolClampRule(t *testing.T) {
	// The single rule: a width <= 0 is serial, positive is verbatim.
	for n, want := range map[int]int{-5: 1, 0: 1, 1: 1, 2: 2, 16: 16} {
		p := NewPool(n)
		if got := p.Workers(); got != want {
			t.Fatalf("NewPool(%d) width %d, want %d", n, got, want)
		}
		p.Close()
	}
}

// BenchmarkRegionJoin opens short regions back to back on a 2-wide pool and
// reports how long the second lane takes to join each one: from just before
// Claim until the worker claims item 1, while lane 0 holds item 0 until then
// (at most 1 ms, the figure recorded when the worker does not come).
// join-p50-us is the median over b.N regions. A worker that parks between
// regions joins only once it has been woken.
func BenchmarkRegionJoin(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	joins := make([]time.Duration, b.N)
	b.ResetTimer()
	for r := range joins {
		joins[r] = time.Millisecond
		var joined atomic.Bool
		start := time.Now()
		p.Claim(2, func(lane, i int) {
			switch {
			case lane != 0:
				joins[r] = time.Since(start)
				joined.Store(true)
			case i == 0:
				for !joined.Load() && time.Since(start) < time.Millisecond {
				}
			}
		})
	}
	b.StopTimer()
	slices.Sort(joins)
	b.ReportMetric(float64(joins[len(joins)/2])/float64(time.Microsecond), "join-p50-us")
}
