package repro

// Benchmark harness: the end-to-end and allocation benchmarks that
// scripts/benchsmoke.sh budgets, ablations of DPar2's design choices, and
// kernel microbenchmarks. Run with
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks of the paper's evaluation (Figs. 1, 9-12,
// Tables II-III) live with their runners in internal/experiments, and the
// Lemma 1-3 and convergence-check ablations with the kernels they measure
// in internal/parafac2.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/parafac2"
	"repro/internal/rng"
	"repro/internal/rsvd"
	"repro/internal/scheduler"
	"repro/internal/tensor"
)

func benchConfig(rank int) parafac2.Config {
	cfg := parafac2.DefaultConfig()
	cfg.Rank = rank
	cfg.MaxIters = 10
	cfg.Threads = 2
	return cfg
}

// benchTensor is a mid-size irregular tensor in the stock-data regime.
func benchTensor(seed uint64) *tensor.Irregular {
	g := rng.New(seed)
	rows := datagen.LongTailRows(g, 40, 100, 600)
	return datagen.LowRank(g, rows, 88, 10, 0.05)
}

// --- Headline: end-to-end DPar2 at the default bench shape -----------------

// BenchmarkDPar2 is the canonical end-to-end wall-time benchmark used by the
// perf trajectory snapshots (BENCH_*.json): full DPar2 (two-stage compression
// plus ALS iterations) on the mid-size stock-regime tensor. Run with
// -benchmem to track the allocation budget.
func BenchmarkDPar2(b *testing.B) {
	ten := benchTensor(1)
	cfg := benchConfig(10)
	cfg.Tol = 0 // run all iterations for a stable workload
	b.ReportAllocs()
	b.ResetTimer()
	var fit float64
	for i := 0; i < b.N; i++ {
		res, err := parafac2.DPar2Ctx(context.Background(), ten, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fit = res.Fitness
	}
	b.ReportMetric(fit, "fitness")
}

// BenchmarkDPar2IterationAllocs isolates the ALS iteration phase on a fixed
// compressed tensor so allocs/op ÷ iterations gives allocations per ALS
// iteration (the budget the workspace arena is accountable for).
func BenchmarkDPar2IterationAllocs(b *testing.B) {
	ten := benchTensor(1)
	cfg := benchConfig(10)
	cfg.Tol = 0
	comp, err := parafac2.CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := parafac2.DPar2FromCompressedCtx(context.Background(), comp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iters
	}
	b.ReportMetric(float64(iters), "als-iters")
}

// BenchmarkDPar2TallSlice guards the sharded stage-1 path: the tallest slice
// is 8x the ShardRows threshold, so compression (run once in setup) goes
// through shard sketches plus the hierarchical merge, and the loop isolates
// the ALS iterations on the resulting compressed tensor. allocs/op ÷
// als-iters must stay on the same budget as BenchmarkDPar2IterationAllocs —
// sharding must not leak allocations into the steady-state iteration.
func BenchmarkDPar2TallSlice(b *testing.B) {
	g := rng.New(21)
	rows := []int{8 * 2048, 700, 900, 500}
	ten := datagen.LowRank(g, rows, 64, 10, 0.05)
	cfg := benchConfig(10)
	cfg.Tol = 0
	cfg.ShardRows = 2048 // tallest slice = 8 shards through the merge path
	comp, err := parafac2.CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := parafac2.DPar2FromCompressedCtx(context.Background(), comp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iters
	}
	b.ReportMetric(float64(iters), "als-iters")
}

// BenchmarkAbsorb guards the streaming absorb path: with Q in lazy factored
// form, one AbsorbCtx pays only the new slices' sketches, the R-sized
// stage-2 update, the O(K·R²) in-place basis rotation, and RefreshIters
// compressed-space iterations — so per-batch time and allocations must stay
// (nearly) flat as the absorbed history K grows. The K=8 and K=64 variants
// absorb the identical batch; each iteration forks the bootstrapped stream
// (outside the timer) so every absorb replays at a fixed K with identical
// RNG state. benchsmoke.sh budgets allocs/op on both.
func BenchmarkAbsorb(b *testing.B) {
	const batchSlices = 4
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			g := rng.New(40)
			rows := make([]int, k)
			for i := range rows {
				rows[i] = 300 + 40*(i%6)
			}
			base := datagen.LowRank(g, rows, 40, 8, 0.02)
			batch := datagen.LowRank(g, []int{2400, 2800, 2200, 2600}[:batchSlices], 40, 8, 0.02).Slices
			cfg := benchConfig(8)
			cfg.Tol = 0
			st, err := parafac2.NewStreamingDPar2Ctx(context.Background(), base, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fork := st.Clone()
				b.StartTimer()
				if err := fork.AbsorbCtx(context.Background(), batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batchSlices), "batch-slices")
		})
	}
}

// BenchmarkEngineContendedQueue guards the admission scheduler on a
// saturated single-worker queue with two priority classes. Each iteration
// replays the same contention scenario: a gate job occupies the only worker
// while a low-priority backlog and then a burst of high-priority jobs are
// queued, so the scheduler must pop every "hi" job before any queued "lo"
// job. The per-class mean queue waits are reported as hi-qwait-ms /
// lo-qwait-ms; scripts/benchsmoke.sh budgets hi-qwait-ms and fails on
// priority inversion (hi-qwait-ms > lo-qwait-ms) or on a missing metric —
// a renamed benchmark or an empty result is a hard failure, not a vacuous
// pass.
func BenchmarkEngineContendedQueue(b *testing.B) {
	const perClass = 8
	g := rng.New(30)
	ten := datagen.LowRank(g, []int{40, 50, 45}, 20, 3, 0.02)
	base := parafac2.DefaultConfig()
	base.Rank = 3
	base.MaxIters = 3
	base.Tol = 0
	// hi and lo sum every iteration's queue waits (no job is cancelled), so
	// the reported means are over every job of the run.
	var hi, lo TenantStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(WithEngineThreads(1), WithBaseConfig(base),
			WithJobConcurrency(1), WithQueueDepth(4*perClass))
		running := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		gate := eng.Submit(context.Background(), Job{
			Tensor: ten, Tag: "gate", Tenant: "gate",
			Options: []Option{WithProgress(func(int, float64) bool {
				once.Do(func() { close(running) })
				<-release
				return true
			})},
		})
		<-running
		pending := make([]<-chan JobResult, 0, 2*perClass)
		for j := 0; j < perClass; j++ {
			pending = append(pending, eng.Submit(context.Background(), Job{
				Tensor: ten, Tenant: "lo", Priority: 0,
				Options: []Option{WithSeed(uint64(j))},
			}))
		}
		for j := 0; j < perClass; j++ {
			pending = append(pending, eng.Submit(context.Background(), Job{
				Tensor: ten, Tenant: "hi", Priority: 10,
				Options: []Option{WithSeed(uint64(j))},
			}))
		}
		close(release)
		if jr := <-gate; jr.Err != nil {
			b.Fatal(jr.Err)
		}
		for _, ch := range pending {
			if jr := <-ch; jr.Err != nil {
				b.Fatal(jr.Err)
			}
		}
		eng.Close()
		st := eng.Stats()
		h, l := st.Tenant("hi"), st.Tenant("lo")
		hi.Started, hi.QueueWait = hi.Started+h.Started, hi.QueueWait+h.QueueWait
		lo.Started, lo.QueueWait = lo.Started+l.Started, lo.QueueWait+l.QueueWait
	}
	b.StopTimer()
	b.ReportMetric(float64(hi.MeanQueueWait().Microseconds())/1e3, "hi-qwait-ms")
	b.ReportMetric(float64(lo.MeanQueueWait().Microseconds())/1e3, "lo-qwait-ms")
}

// BenchmarkCacheHit guards the content-addressed result cache's hot path: a
// repeated Decompose on an Engine with WithResultCache is served from disk —
// key derivation (DigestTensor: a DPT2 encode of the tensor and two sha256
// passes over it, one for its trailer and one for the digest), the entry
// read whole in one read and checked in one sha256 pass, and the decode
// Decompose makes of a hit (which repeats DPF2's own trailer check), but
// never the method.
// scripts/benchsmoke.sh budgets both allocs/op and latency; the counter check
// below makes a silently-bypassed cache a hard failure rather than a bench of
// the wrong path.
func BenchmarkCacheHit(b *testing.B) {
	g := rng.New(50)
	ten := datagen.LowRank(g, []int{120, 140, 100, 130}, 60, 8, 0.02)
	base := benchConfig(8)
	base.MaxIters = 6
	base.Tol = 0
	eng := NewEngine(WithBaseConfig(base), WithStateDir(b.TempDir()), WithResultCache(1<<28))
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Decompose(ctx, ten); err != nil { // warm: the one miss
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Decompose(ctx, ten); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := eng.Stats().Tenant("")
	if st.CacheMisses != 1 || st.CacheHits < int64(b.N) {
		b.Fatalf("cache did not serve the loop: %d hits, %d misses", st.CacheHits, st.CacheMisses)
	}
}

// --- Ablations ----------------------------------------------------------------

// AblationStage2: two-stage compression vs stopping after stage 1. The
// second stage is what shrinks the per-iteration working set from J×KR to
// R-sized blocks; skipping it leaves BkCkᵀ (J×R per slice) in the loop.
func BenchmarkAblationStage2(b *testing.B) {
	ten := benchTensor(10)
	cfg := benchConfig(10)
	b.Run("two-stage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			comp, err := parafac2.CompressCtx(context.Background(), ten, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := parafac2.DPar2FromCompressedCtx(context.Background(), comp, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stage1-only-als-on-compressed", func(b *testing.B) {
		// Stage-1-only strategy: replace each slice by its rank-R
		// approximation and run plain ALS on the (still J-wide) result.
		g := rng.New(11)
		opts := rsvd.Options{Oversample: cfg.Oversample, PowerIters: cfg.PowerIters}
		slices := make([]*mat.Dense, ten.K())
		for k, s := range ten.Slices {
			d := rsvd.Decompose(g, s, cfg.Rank, opts)
			slices[k] = d.Reconstruct()
		}
		approx := tensor.MustIrregular(slices)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := parafac2.ALSCtx(context.Background(), approx, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// AblationPartition: greedy (Alg. 4) vs round-robin slice allocation under
// the long-tailed slice-height distribution of Fig. 8.
func BenchmarkAblationPartition(b *testing.B) {
	g := rng.New(14)
	sizes := datagen.LongTailRows(g, 4000, 50, 5000)
	b.Run("greedy", func(b *testing.B) {
		var imb float64
		for i := 0; i < b.N; i++ {
			imb = schedImbalanceGreedy(sizes, 6)
		}
		b.ReportMetric(imb, "max/ideal-load")
	})
	b.Run("round-robin", func(b *testing.B) {
		var imb float64
		for i := 0; i < b.N; i++ {
			imb = schedImbalanceRR(sizes, 6)
		}
		b.ReportMetric(imb, "max/ideal-load")
	})
}

func schedImbalanceGreedy(sizes []int, t int) float64 {
	return scheduler.Imbalance(sizes, scheduler.Partition(sizes, t))
}

func schedImbalanceRR(sizes []int, t int) float64 {
	return scheduler.Imbalance(sizes, scheduler.RoundRobin(len(sizes), t))
}

// AblationPowerIter: randomized-SVD power iterations q ∈ {0,1,2} — the
// fitness/time trade-off of the sketch.
func BenchmarkAblationPowerIter(b *testing.B) {
	ten := benchTensor(15)
	for _, q := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			cfg := benchConfig(10)
			cfg.PowerIters = q
			var fit float64
			for i := 0; i < b.N; i++ {
				res, err := parafac2.DPar2Ctx(context.Background(), ten, cfg)
				if err != nil {
					b.Fatal(err)
				}
				fit = res.Fitness
			}
			b.ReportMetric(fit, "fitness")
		})
	}
}

// --- kernel-level microbenches ------------------------------------------------

// BenchmarkKernelMatMul covers the square fill-in sizes plus the two shapes
// the register-blocked kernels are sized for: the R×R ALS hot-loop product
// and the tall-skinny stage-1 projection (I_k × J times J × (R+s)).
func BenchmarkKernelMatMul(b *testing.B) {
	g := rng.New(16)
	for _, sh := range [][3]int{{64, 64, 64}, {256, 256, 256}, {10, 10, 10}, {600, 88, 18}} {
		a := mat.Gaussian(g, sh[0], sh[1])
		c := mat.Gaussian(g, sh[1], sh[2])
		b.Run(fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.Mul(c)
			}
		})
	}
}

// BenchmarkFactorBatch guards the fused batched small-SVD sweep at the ALS
// hot-loop shape: K problems of size R×R (R = 10) through one warmed
// BatchWorkspace. scripts/benchsmoke.sh budgets allocs/op on both K variants
// — steady-state batch factorization must stay allocation-free, so any
// reintroduced per-problem allocation trips the guard at K=8 already and
// scales visibly at K=64.
func BenchmarkFactorBatch(b *testing.B) {
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			g := rng.New(60)
			as := make([]*mat.Dense, k)
			us := make([]*mat.Dense, k)
			ss := make([][]float64, k)
			vs := make([]*mat.Dense, k)
			for p := 0; p < k; p++ {
				as[p] = mat.Gaussian(g, 10, 10)
				us[p] = mat.New(10, 10)
				ss[p] = make([]float64, 10)
				vs[p] = mat.New(10, 10)
			}
			var ws lapack.BatchWorkspace
			lapack.FactorBatch(as, us, ss, vs, nil, &ws) // warm the slab
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lapack.FactorBatch(as, us, ss, vs, nil, &ws)
			}
		})
	}
}

func BenchmarkKernelRandomizedSVD(b *testing.B) {
	g := rng.New(17)
	a := mat.Gaussian(g, 2000, 100)
	b.Run("rsvd-rank10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rsvd.Decompose(g, a, 10, rsvd.DefaultOptions())
		}
	})
	b.Run("deterministic-rank10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lapack.Truncated(a, 10)
		}
	})
}
