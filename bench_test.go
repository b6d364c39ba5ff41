package repro

// Benchmark harness: one testing.B benchmark per table/figure of the paper's
// evaluation section, plus ablations for the design choices DESIGN.md calls
// out. Run with
//
//	go test -bench=. -benchmem
//
// The full experiment harness (larger datasets, formatted tables) lives in
// cmd/experiments; these benches are the regenerable, per-figure entry
// points with stable workloads.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/datagen"
	"repro/internal/experiments"
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
	stats := &admission.Stats{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(WithEngineThreads(1), WithBaseConfig(base),
			WithJobConcurrency(1), WithQueueDepth(4*perClass),
			WithEngineMetrics(stats))
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
	}
	b.StopTimer()
	hi, lo := stats.Tenant("hi"), stats.Tenant("lo")
	b.ReportMetric(float64(hi.MeanQueueWait().Microseconds())/1e3, "hi-qwait-ms")
	b.ReportMetric(float64(lo.MeanQueueWait().Microseconds())/1e3, "lo-qwait-ms")
}

// BenchmarkCacheHit guards the content-addressed result cache's hot path: a
// repeated Decompose on an Engine with WithResultCache is served from disk —
// key derivation (one sha256 pass over the serialized tensor), one cached-file
// read, checksum verification, and result decode, but never the method.
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
	hits, misses := eng.CacheCounters()
	if misses != 1 || hits < uint64(b.N) {
		b.Fatalf("cache did not serve the loop: %d hits, %d misses", hits, misses)
	}
}

// --- Fig. 1: total running time per method (trade-off) -------------------

func BenchmarkFig1TradeOff(b *testing.B) {
	ten := benchTensor(1)
	for _, m := range experiments.Methods() {
		for _, rank := range []int{10, 15, 20} {
			b.Run(fmt.Sprintf("%s/rank%d", m.Name, rank), func(b *testing.B) {
				cfg := benchConfig(rank)
				var fit float64
				for i := 0; i < b.N; i++ {
					res, err := m.Run(context.Background(), ten, cfg)
					if err != nil {
						b.Fatal(err)
					}
					fit = res.Fitness
				}
				b.ReportMetric(fit, "fitness")
			})
		}
	}
}

// --- Fig. 9(a): preprocessing phase only ----------------------------------

func BenchmarkFig9Preprocess(b *testing.B) {
	ten := benchTensor(2)
	b.Run("DPar2/two-stage-rsvd", func(b *testing.B) {
		cfg := benchConfig(10)
		for i := 0; i < b.N; i++ {
			if _, err := parafac2.CompressCtx(context.Background(), ten, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RD-ALS/deterministic-svd", func(b *testing.B) {
		// RD-ALS's preprocessing: truncated deterministic SVD of the
		// J×ΣI_k concatenation.
		concat := make([]*mat.Dense, ten.K())
		for k, s := range ten.Slices {
			concat[k] = s.T()
		}
		wide := mat.HConcat(concat...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = lapack.Truncated(wide, 10)
		}
	})
}

// --- Fig. 9(b): single-iteration cost -------------------------------------

func BenchmarkFig9IterationTime(b *testing.B) {
	ten := benchTensor(3)
	for _, m := range experiments.Methods() {
		b.Run(m.Name, func(b *testing.B) {
			cfg := benchConfig(10)
			cfg.MaxIters = 8
			cfg.Tol = 0 // run all iterations: we report per-iteration time
			var perIter float64
			for i := 0; i < b.N; i++ {
				res, err := m.Run(context.Background(), ten, cfg)
				if err != nil {
					b.Fatal(err)
				}
				perIter = res.IterTime.Seconds() / float64(res.Iters) * 1e3
			}
			b.ReportMetric(perIter, "ms/als-iter")
		})
	}
}

// --- Fig. 10: compression ratio --------------------------------------------

func BenchmarkFig10CompressionRatio(b *testing.B) {
	// Spectrogram regime (large J): where the paper sees up to 201x.
	g := rng.New(4)
	ten := datagen.SpectrogramTensor(g, 16, 60, 160, 256)
	cfg := benchConfig(10)
	var ratio float64
	for i := 0; i < b.N; i++ {
		comp, err := parafac2.CompressCtx(context.Background(), ten, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(ten.SizeBytes()) / float64(comp.SizeBytes())
	}
	b.ReportMetric(ratio, "input/compressed")
}

// --- Fig. 11(a): tensor-size scalability -----------------------------------

func BenchmarkFig11TensorSize(b *testing.B) {
	for _, s := range [][3]int{{50, 50, 25}, {100, 50, 25}, {100, 100, 25}, {100, 100, 50}} {
		g := rng.New(5)
		ten := datagen.RandomIrregular(g, s[0], s[1], s[2])
		for _, m := range experiments.Methods() {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s[0], s[1], s[2], m.Name), func(b *testing.B) {
				cfg := benchConfig(10)
				for i := 0; i < b.N; i++ {
					if _, err := m.Run(context.Background(), ten, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Fig. 11(b): rank scalability -------------------------------------------

func BenchmarkFig11Rank(b *testing.B) {
	g := rng.New(6)
	ten := datagen.RandomIrregular(g, 100, 100, 40)
	for _, rank := range []int{10, 20, 30, 40, 50} {
		for _, m := range experiments.Methods() {
			b.Run(fmt.Sprintf("rank%d/%s", rank, m.Name), func(b *testing.B) {
				cfg := benchConfig(rank)
				for i := 0; i < b.N; i++ {
					if _, err := m.Run(context.Background(), ten, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Fig. 11(c): multi-core scalability -------------------------------------

func BenchmarkFig11Threads(b *testing.B) {
	ten := benchTensor(7)
	for _, th := range []int{1, 2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("threads%d", th), func(b *testing.B) {
			cfg := benchConfig(10)
			cfg.Threads = th
			for i := 0; i < b.N; i++ {
				if _, err := parafac2.DPar2Ctx(context.Background(), ten, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 12 / Table III: discovery pipeline --------------------------------

func BenchmarkFig12Correlations(b *testing.B) {
	g := rng.New(8)
	ten, sec := datagen.StockTensor(g, 24, 80, 300, datagen.DefaultUSMarket())
	d := experiments.Dataset{Name: "US Stock", Tensor: ten, Sectors: sec}
	cfg := benchConfig(10)
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig12(context.Background(), d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIISimilarStocks(b *testing.B) {
	g := rng.New(9)
	ten, sec := datagen.StockTensor(g, 24, 80, 300, datagen.DefaultUSMarket())
	d := experiments.Dataset{Name: "US Stock", Tensor: ten, Sectors: sec}
	cfg := benchConfig(10)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(context.Background(), d, cfg, 0, 10, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II: dataset generation cost --------------------------------------

func BenchmarkTableIIGenerators(b *testing.B) {
	b.Run("stock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			datagen.StockTensor(rng.New(uint64(i)), 12, 80, 300, datagen.DefaultUSMarket())
		}
	})
	b.Run("spectrogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			datagen.SpectrogramTensor(rng.New(uint64(i)), 8, 60, 120, 256)
		}
	})
	b.Run("traffic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			datagen.TrafficTensor(rng.New(uint64(i)), 16, 100, 96)
		}
	})
}

// --- Ablations (DESIGN.md §4) ------------------------------------------------

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

// AblationLemmaReorder: Lemmas 1-3 vs materializing Y and running the naive
// MTTKRP (what a straightforward implementation would do).
func BenchmarkAblationLemmaReorder(b *testing.B) {
	g := rng.New(12)
	r, j, k := 10, 512, 300
	d := lapack.QRFactor(mat.Gaussian(g, j, r)).Q
	e := make([]float64, r)
	for i := range e {
		e[i] = 1 + g.Float64()
	}
	tf := make([]*mat.Dense, k)
	for kk := range tf {
		tf[kk] = mat.Gaussian(g, r, r)
	}
	w := mat.Gaussian(g, k, r)
	v := mat.Gaussian(g, j, r)
	h := mat.Gaussian(g, r, r)

	b.Run("lemma-reordered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dtv := d.TMul(v)
			parafac2.LemmaG1(tf, w, e, dtv, 2)
			parafac2.LemmaG2(tf, w, d, e, h, 2)
			parafac2.LemmaG3(tf, e, dtv, h, 2)
		}
	})
	b.Run("naive-materialized-Y", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ySlices := make([]*mat.Dense, k)
			for kk := range ySlices {
				ySlices[kk] = tf[kk].ScaleColumns(e).MulT(d)
			}
			y := tensor.MustDense3(ySlices)
			y.MTTKRP(1, w, v)
			y.MTTKRP(2, w, h)
			y.MTTKRP(3, v, h)
		}
	})
}

// AblationConvergence: compressed convergence check (Gram trick) vs the
// paper's direct R×J computation vs full reconstruction error.
func BenchmarkAblationConvergence(b *testing.B) {
	ten := benchTensor(13)
	cfg := benchConfig(10)
	comp, err := parafac2.CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := parafac2.DPar2FromCompressedCtx(context.Background(), comp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tf := make([]*mat.Dense, ten.K())
	for k := range tf {
		tf[k] = res.Qk(k).TMul(comp.A[k]).Mul(comp.F[k])
	}
	b.Run("gram-trick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dtv := comp.D.TMul(res.V)
			parafac2.CompressedErrorGram2(tf, comp.E, dtv, res.V, res.H, res.S)
		}
	})
	b.Run("direct-RxJ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parafac2.CompressedErrorDirect2(comp, tf, res.V, res.H, res.S)
		}
	})
	b.Run("full-reconstruction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum float64
			for k, xk := range ten.Slices {
				d := xk.FrobDist(res.ReconstructSlice(k))
				sum += d * d
			}
			_ = sum
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
