package parafac2

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// scheduleCase is a long-tailed tensor with one slice tall enough to be
// sharded, so stage 1 claims whole slices and shards alike.
func scheduleCase() (*tensor.Irregular, Config) {
	g := rng.New(29)
	rows := irregRows(g, 13, 20, 90)
	rows[3] = 200
	cfg := smallConfig(3)
	cfg.MaxIters = 12
	cfg.Tol = 0
	cfg.ShardRows = 64
	return synthPARAFAC2(g, rows, 16, 3, 0.05), cfg
}

// compressedDigest is a sha256 over the float64 bits of every A_k, D, E and
// every F block.
func compressedDigest(c *Compressed) string {
	h := sha256.New()
	var b [8]byte
	floats := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, a := range c.A {
		floats(a.Data)
	}
	floats(c.D.Data)
	floats(c.E)
	for _, f := range c.F {
		floats(f.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scheduleDigests runs CompressCtx, DPar2Ctx and RDALSCtx on pool and
// returns the digest of each result.
func scheduleDigests(t *testing.T, ten *tensor.Irregular, cfg Config, pool *compute.Pool) [3]string {
	t.Helper()
	ctx := context.Background()
	cfg.Pool = pool
	comp, err := CompressCtx(ctx, ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := DPar2Ctx(ctx, ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := RDALSCtx(ctx, ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return [3]string{compressedDigest(comp), resultDigest(dp), resultDigest(rd)}
}

var scheduleRuns = [3]string{"CompressCtx", "DPar2Ctx", "RDALSCtx"}

// TestClaimedScheduleBitsAcrossWidths: stage 1 claims its units largest
// first, the iteration regions claim chunks, and the convergence check and
// fitness run across the pool, yet CompressCtx, DPar2Ctx and RDALSCtx give
// the same bits on pools of width 1, 2, 3 and 6.
func TestClaimedScheduleBitsAcrossWidths(t *testing.T) {
	ten, cfg := scheduleCase()
	var want [3]string
	for _, w := range []int{1, 2, 3, 6} {
		pool := compute.NewPool(w)
		got := scheduleDigests(t, ten, cfg, pool)
		pool.Close()
		if w == 1 {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s on a pool of width %d: bits differ from width 1", scheduleRuns[i], w)
			}
		}
	}
}

// TestClaimedScheduleBitsWhenALaneJoinsLate: the bits do not depend on when
// a lane joins a region. A neighbour keeps submitting regions to the same
// pool that hold a worker for 30 µs each, so the pool's workers keep
// arriving at the decomposition's regions late, after part of each region
// has run on lane 0, or not at all.
func TestClaimedScheduleBitsWhenALaneJoinsLate(t *testing.T) {
	ten, cfg := scheduleCase()
	serial := compute.NewPool(1)
	want := scheduleDigests(t, ten, cfg, serial)
	serial.Close()
	for _, w := range []int{2, 3} {
		pool := compute.NewPool(w)
		stop, holding := make(chan struct{}), make(chan struct{})
		var once sync.Once
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Lane 0 keeps item 0 until a worker has taken item 1 (or
				// 200 µs pass), so the worker, not lane 0, is held.
				var joined atomic.Bool
				start := time.Now()
				pool.Claim(w, func(lane, i int) {
					if lane == 0 {
						for i == 0 && !joined.Load() && time.Since(start) < 200*time.Microsecond {
						}
						return
					}
					joined.Store(true)
					once.Do(func() { close(holding) })
					for t0 := time.Now(); time.Since(t0) < 30*time.Microsecond; {
					}
				})
			}
		}()
		select {
		case <-holding:
		case <-time.After(5 * time.Second):
			close(stop)
			wg.Wait()
			t.Fatalf("width %d: the neighbour never held a worker", w)
		}
		got := scheduleDigests(t, ten, cfg, pool)
		close(stop)
		wg.Wait()
		pool.Close()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s on a pool of width %d with late lanes: bits differ from width 1", scheduleRuns[i], w)
			}
		}
	}
}
