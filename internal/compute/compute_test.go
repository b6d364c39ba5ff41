package compute

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mat"
)

func TestPoolDoRunsAllTasks(t *testing.T) {
	for _, width := range []int{0, 1, 2, 4, 16} {
		p := NewPool(width)
		var count int64
		tasks := make([]func(), 37)
		for i := range tasks {
			tasks[i] = func() { atomic.AddInt64(&count, 1) }
		}
		p.Do(tasks...)
		if count != 37 {
			t.Fatalf("width=%d ran %d of 37 tasks", width, count)
		}
		p.Close()
	}
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

func TestClosedPoolRunsInline(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	var n int64
	p.ParallelFor(10, func(i int) { atomic.AddInt64(&n, 1) })
	if n != 10 {
		t.Fatalf("closed pool ran %d of 10", n)
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
