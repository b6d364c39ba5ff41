// Package repro is a from-scratch Go implementation of DPar2 (Jang & Kang,
// "DPar2: Fast and Scalable PARAFAC2 Decomposition for Irregular Dense
// Tensors", ICDE 2022), together with the PARAFAC2 baselines the paper
// evaluates against and the analytics its discovery experiments use.
//
// An irregular tensor is a collection of dense matrices {X_k} sharing a
// column count J but with individual row counts I_k (e.g. stocks with
// different listing periods, songs with different durations). PARAFAC2
// approximates each slice as X_k ≈ U_k S_k Vᵀ with U_k = Q_k H,
// Q_kᵀQ_k = I, S_k diagonal, and H, V shared across slices.
//
// # Quickstart
//
// Everything runs through a long-lived Engine, which owns the shared compute
// runtime (worker pool + workspace arena) and dispatches to any registered
// algorithm:
//
//	eng := repro.NewEngine() // pool width = DefaultConfig().Threads (6)
//	defer eng.Close()
//
//	g := repro.NewRNG(1)
//	ten := repro.LowRankTensor(g, []int{300, 500, 400}, 50, 10, 0.01)
//	res, err := eng.Decompose(ctx, ten,
//		repro.WithMethod(repro.MethodDPar2), // the default
//		repro.WithRank(10), repro.WithSeed(7))
//	if err != nil { ... }
//	fmt.Println(res.Fitness, res.Iters, res.TotalTime)
//
// A call's Options apply in order over DefaultSpec, the paper's settings;
// the Engine holds no decomposition knobs of its own, only the runtime
// (pool, job queue, durable state) its calls share.
//
// The context is honored between ALS iterations and between the parallel
// phases inside one, so a decomposition is cancellable and deadline-bounded;
// on cancellation the unwrapped ctx.Err() comes back and no workers leak.
// The four algorithms of the paper (MethodDPar2, MethodRDALS, MethodALS,
// MethodSPARTan) ship registered; Methods lists the registry.
//
// # The multi-tenant job service: admission control
//
// For servers decomposing many tensors against one runtime, Submit runs
// jobs through an admission-controlled queue drained by a fixed set of job
// workers — all on the Engine's one pool, with the arena keeping
// steady-state allocation near zero across jobs. The queue is a priority
// queue with per-tenant quotas, so N tenants share the Engine without a
// FIFO letting one of them starve the rest:
//
//	eng := repro.NewEngine(
//		repro.WithTenantQuota(8, 2), // per tenant: <=8 queued, <=2 running
//		repro.WithTenantQuotaOverrides(map[string]repro.TenantQuota{
//			"batch": {MaxQueued: 4, MaxRunning: 1}, // squeezed pipeline
//		}),
//	)
//	defer eng.Close()
//
//	ch := eng.Submit(ctx, repro.Job{
//		Tensor:   t,
//		Tag:      "req-42",
//		Tenant:   "interactive", // quota bucket ("" is the default bucket)
//		Priority: 10,            // higher runs first; ties are FIFO
//		Options:  []repro.Option{repro.WithRank(10), repro.WithSeed(7)},
//	})
//	jr := <-ch // exactly one result per job
//	fmt.Print(eng.Stats()) // the served-traffic table
//
// Queued jobs run in (Priority descending, submission order) — a saturated
// queue's high-priority submits overtake the pre-queued backlog. A tenant
// at its MaxQueued quota gets an immediate typed rejection (a *QuotaError
// matching ErrQuotaExceeded, carrying the tenant) without consuming a
// shared queue slot; in-quota jobs still get backpressure (Submit blocks
// while the queue is full). MaxRunning is enforced by the scheduler
// skipping a capped tenant's jobs — the workers stay busy with other
// tenants — until one of its running jobs completes. Quota is released when
// a job finishes and when a queued job's context is cancelled.
//
// A JobResult holds Err or a success, kept in the form the Engine produced
// it: a computed Result, or a result-cache hit's entry bytes. Result()
// returns a *Result, decoding a hit; Encoded() returns the run metadata
// plus DPF2 bytes the cache stores, a hit's verbatim, which is what the
// HTTP front end serves. JobResult.Err taxonomy — Err is one of:
//
//   - the job context's error (ctx.Err()), if cancelled while queued or
//     mid-run; a job cancelled while queued releases its tenant's quota and
//     never occupies a worker;
//   - ErrEngineClosed, if submitted after Close;
//   - a *QuotaError matching ErrQuotaExceeded, if the tenant was over its
//     queued quota;
//   - the decomposition's own error otherwise.
//
// Engine.Stats reports the whole flow per tenant: admitted, rejected,
// started, completed, failed and cancelled jobs, their queue-wait and run
// latency, result-cache hits and misses, and the queue's high-water depth.
// The admission queue keeps these counts itself, under the same lock as each
// transition; the snapshot prints as a served-traffic table (see
// examples/scalability). The one per-iteration hook is WithProgress, which
// sees each iteration's convergence measure.
//
// Results are deterministic for a given tensor and options — bit-identical
// whether a job runs alone, concurrently with others, at any pool width, or
// reordered by any priority/quota schedule. Priorities change WHEN a job
// runs, never what it computes.
//
// # Option validation
//
// NewEngine options validate eagerly and panic on values that would
// otherwise silently fall back to a default: WithQueueDepth and
// WithJobConcurrency require positive counts, WithTenantQuota and
// WithTenantQuotaOverrides require positive bounds (leave a tenant
// quota-less for "unbounded"), WithStateDir requires a non-empty directory,
// and WithResultCache a positive byte bound plus WithStateDir.
// Per-call Options (WithRank, WithMaxIters, ...) instead return an error
// from the call they were passed to, before any work starts.
//
// # Threading model
//
// The Engine's pool is the single parallelism knob, with one rule: its
// width is DefaultConfig().Threads (the paper's 6) unless WithEngineThreads
// sets another (thread counts <= 0 mean serial — the one clamping rule,
// applied by compute.NewPool everywhere a thread count becomes a pool) or
// WithEnginePool hands it an existing pool. Every parallel phase
// (slice compression, the ALS iteration kernels, fitness evaluation) of
// every call runs on that pool. The pool contributes at most width-1 worker
// goroutines; each submitting goroutine participates in its own work, so N
// concurrent callers run on at most width-1 + N goroutines.
//
// # Tall slices: sharded stage-1 sketches
//
// Stage-1 cost and scratch are proportional to the tallest slice, so one
// slice with I_k ≫ 10⁵ rows is both the latency straggler and the memory
// ceiling. Slices taller than the ShardRows threshold (DefaultShardRows =
// 64k rows; WithShardRows per call, or Config.ShardRows) are therefore
// sketched in row shards: each shard is an independent work unit balanced
// across the pool, and the shard bases are merged by a second small
// randomized SVD. The factor contract is unchanged (A_k column orthonormal,
// I_k×R) and results stay bit-reproducible for a fixed tensor and options at
// any pool width; peak stage-1 scratch drops to O(ShardRows·(R+oversample))
// per in-flight shard, inside the workspace arena's recyclable range.
// WithShardRows(-1) disables sharding (the pre-sharding behavior).
//
// # Lazy factored Q and fitness kinds
//
// DPar2 results hold Q in factored form (Q_k = A_k Z_k P_kᵀ, with A_k the
// compressed basis and Z_k, P_k tiny R×R matrices): the dense I_k×R slices
// are materialized lazily by Result.Qk, Uk, UkRows, and ReconstructSlice, and
// never by the solver itself; serialization (internal/dataio) round-trips
// the factored form without materializing.
//
// Result.FitnessKind says what Result.Fitness was measured against:
// FitnessTrue is the fitness against the input tensor (Engine.Decompose and
// Engine.Fitness always produce this kind), FitnessCompressed
// is the compressed-space estimate that Engine.DecomposeCompressed and
// streaming refreshes report — exact against the compressed approximation,
// off from the true value only by the one-time compression error. Re-evaluate
// with Engine.Fitness when the true value is needed.
//
// # Non-finite values
//
// A NaN or ±Inf anywhere in the input, or factors that diverge, end the run
// with an error matching ErrNonFinite (wrapped with the iteration number)
// instead of a result: every method checks its convergence measure each
// iteration, and StreamingDPar2.AbsorbCtx rejects a batch holding a
// non-finite value before absorbing it. Such a run is never cached or
// checkpointed, and over HTTP it is a 400 bad_request.
//
// # Streaming absorbs
//
// Lazy Q is what makes streaming absorbs independent of the history:
// StreamingDPar2.AbsorbCtx touches the new slices' sketches, an R-sized
// stage-2 update, an O(K·R²) in-place basis rotation, and a few
// compressed-space refresh iterations — no O(I_k) work on any previously
// absorbed slice, and per-batch allocations that do not grow with K
// (BenchmarkAbsorb guards both in CI).
//
// AbsorbCtx's retry contract: an error from the append phase means the batch
// was NOT absorbed — the stream, including its RNG state, is unchanged, and
// retrying the same batch yields a stream bit-identical to one that was never
// interrupted. An error from the refresh phase (wrapped with "batch
// absorbed") means the slices ARE in the stream but the factors are stale:
// call StreamingDPar2.Refresh; re-absorbing would duplicate the batch.
// StreamingDPar2.Clone forks a stream cheaply (shared immutable bases,
// copied mutable state) for what-if batches.
//
// # Durable state
//
// Streams survive their process: Engine.SaveStream writes a complete
// checkpoint (config, RNG state, compressed representation, factors)
// atomically — write-temp, fsync, rename — and Engine.ResumeStream restores
// it, such that checkpoint → restore → AbsorbCtx is bit-identical to a stream
// that was never interrupted. WithStateDir names the one durable root
// (Engine.StateDir reports it): relative SaveStream/ResumeStream paths
// resolve under it. With WithStateDir and WithResultCache the
// Engine also keeps a content-addressed, LRU-bounded result cache: a
// repeated Decompose of the same tensor under the same deterministic knobs
// is served from disk without running the method (Engine.Stats counts hits
// and misses per tenant). All persisted files — tensors and results
// (internal/dataio), checkpoints, cache entries — are written atomically and
// carry a sha256 content checksum; readers reject corrupt or truncated input
// with typed errors and cap allocations against hostile headers. docs/DURABILITY.md documents the formats, the crash-safety
// contract, and the cache key in full.
//
// # Serving over HTTP
//
// Every deterministic knob of a call compiles into a serializable Spec:
// Engine.ResolveSpec turns a set of Options into the fully resolved form,
// WithSpec replays one, and equal Specs mean bit-identical results within
// one numerics epoch (the result cache is keyed accordingly). That is what
// makes the Engine servable: cmd/dpar2d exposes Decompose/Submit/NewStream
// over HTTP/JSON — tensor upload, async job handles, durable streaming
// sessions that survive a daemon kill bit-identically (each is checkpointed
// under the Engine's state directory by its create and every absorb, before
// the reply, and by nothing else), per-tenant 429s off
// the admission layer, and /v1/stats off Engine.Stats. The API contract,
// error taxonomy, and session stickiness rules live in docs/SERVICE.md; the
// typed Go client is internal/service.Client, and examples/service walks
// the whole surface.
//
// The heavy lifting lives in internal packages (compute, mat, lapack, rsvd,
// tensor, parafac2, scheduler, datagen, stats); this package re-exports the
// surface a downstream user needs.
package repro

import (
	"repro/internal/compute"
	"repro/internal/datagen"
	"repro/internal/mat"
	"repro/internal/parafac2"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Pool is the shared compute runtime: a long-lived worker pool plus
// size-bucketed scratch reuse that all decomposition phases run on. Every
// Engine owns one (Engine.Pool); hand it to further Engines with
// WithEnginePool to share it across them.
type Pool = compute.Pool

// Matrix is a row-major dense matrix of float64.
type Matrix = mat.Dense

// Irregular is an irregular 3-order tensor: K dense slices with a shared
// column count and per-slice row counts.
type Irregular = tensor.Irregular

// Config carries the decomposition parameters (rank, iterations, tolerance,
// threads, randomized-SVD knobs) as the methods run them. Engine calls do
// not take one: their Options resolve to a Spec, which the Engine turns into
// the Config it runs on its own pool.
type Config = parafac2.Config

// Result is the output of a PARAFAC2 decomposition: factors H, V, S_k, Q_k
// plus fitness, iteration count, and a timing/footprint breakdown. DPar2
// results keep Q_k in lazy factored form — see the package-doc section on
// lazy factored Q, and Result.Qk/Uk/UkRows.
type Result = parafac2.Result

// FitnessKind tags what Result.Fitness was measured against (see the
// package doc): the input tensor (FitnessTrue) or the compressed
// approximation (FitnessCompressed).
type FitnessKind = parafac2.FitnessKind

// Fitness kinds, re-exported from internal/parafac2.
const (
	FitnessUnset      = parafac2.FitnessUnset
	FitnessTrue       = parafac2.FitnessTrue
	FitnessCompressed = parafac2.FitnessCompressed
)

// Compressed is the two-stage randomized-SVD compression of an irregular
// tensor that DPar2 iterates on.
type Compressed = parafac2.Compressed

// RNG is the deterministic random number generator used for initialization,
// sketches, and data generation.
type RNG = rng.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// DefaultConfig mirrors the paper's experimental settings (rank 10, at most
// 32 ALS iterations, 6 threads, oversampling 8, one power iteration).
func DefaultConfig() Config { return parafac2.DefaultConfig() }

// DefaultShardRows is the stage-1 sharding threshold applied when
// Config.ShardRows is 0 (and by WithShardRows(0)): slices taller than this
// many rows are sketched in row shards and merged hierarchically.
const DefaultShardRows = parafac2.DefaultShardRows

// NewIrregular wraps slices (which must share a column count) as an
// irregular tensor.
func NewIrregular(slices []*Matrix) (*Irregular, error) { return tensor.NewIrregular(slices) }

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return mat.New(rows, cols) }

// NewMatrixFromData wraps row-major data as a matrix without copying.
func NewMatrixFromData(rows, cols int, data []float64) *Matrix {
	return mat.NewFromData(rows, cols, data)
}

// SliceResiduals returns ‖X_k − X̂_k‖/‖X_k‖ per slice — elevated residuals
// flag slices the shared factors cannot explain (fault detection, one of
// PARAFAC2's classical applications).
func SliceResiduals(t *Irregular, r *Result) []float64 { return parafac2.SliceResiduals(t, r) }

// Anomaly flags one slice singled out by residual analysis.
type Anomaly = parafac2.Anomaly

// DetectAnomalies ranks slices whose reconstruction residual deviates from
// the cohort by more than threshold robust z-scores (≈3.5 is conventional).
func DetectAnomalies(t *Irregular, r *Result, threshold float64) []Anomaly {
	return parafac2.DetectAnomalies(t, r, threshold)
}

// FactorMatchScore compares two factor matrices up to column permutation
// and sign via greedy Tucker-congruence matching (1 = identical components).
func FactorMatchScore(a, b *Matrix) float64 { return stats.FactorMatchScore(a, b) }

// StreamingDPar2 maintains a PARAFAC2 decomposition over a growing tensor:
// new slices are absorbed into the compressed representation without
// recompressing the old ones (the paper's named future-work setting), and
// each AbsorbCtx warm-starts the factor refresh from the previous result
// with a small iteration bound (StreamingDPar2.RefreshIters). Start one with
// Engine.NewStream.
type StreamingDPar2 = parafac2.StreamingDPar2

// ----- Synthetic data generators (stand-ins for the paper's datasets) -----

// RandomTensor mirrors Tensor Toolbox's tenrand(I, J, K): K equal-height
// slices with uniform [0,1) entries — the scalability-study workload.
func RandomTensor(g *RNG, i, j, k int) *Irregular { return datagen.RandomIrregular(g, i, j, k) }

// LowRankTensor builds an irregular tensor with exact PARAFAC2 structure of
// the given rank plus relative Gaussian noise.
func LowRankTensor(g *RNG, rows []int, j, rank int, noise float64) *Irregular {
	return datagen.LowRank(g, rows, j, rank, noise)
}

// StockMarket parameterizes the market simulator.
type StockMarket = datagen.StockMarket

// USMarket / KRMarket mirror the two stock datasets of the paper: a
// developed market where volume tracks price moves, and a higher-volatility
// market where it does not (the Fig. 12 contrast).
func USMarket() StockMarket { return datagen.DefaultUSMarket() }
func KRMarket() StockMarket { return datagen.DefaultKRMarket() }

// NewStockTensor simulates a market of k stocks with listing periods in
// [minDays, maxDays] drawn long-tailed (Fig. 8), each a (days × 88)
// feature matrix. It also returns each stock's sector id.
func NewStockTensor(g *RNG, k, minDays, maxDays int, m StockMarket) (*Irregular, []int) {
	return datagen.StockTensor(g, k, minDays, maxDays, m)
}

// StockFeatureNames returns the 88 feature-column labels of stock tensors.
func StockFeatureNames() []string { return datagen.StockFeatureNames() }

// NewSpectrogramTensor simulates k songs/sounds as log-power spectrograms
// (time × freqBins), the FMA/Urban stand-in.
func NewSpectrogramTensor(g *RNG, k, minFrames, maxFrames, freqBins int) *Irregular {
	return datagen.SpectrogramTensor(g, k, minFrames, maxFrames, freqBins)
}

// NewVideoFeatureTensor simulates k videos as (frame × feature) matrices,
// the Activity/Action stand-in.
func NewVideoFeatureTensor(g *RNG, k, minFrames, maxFrames, features, classes int) *Irregular {
	return datagen.VideoFeatureTensor(g, k, minFrames, maxFrames, features, classes)
}

// NewTrafficTensor simulates k days of (sensor × time-of-day) volumes, the
// Traffic/PEMS-SF stand-in.
func NewTrafficTensor(g *RNG, k, sensors, timestamps int) *Irregular {
	return datagen.TrafficTensor(g, k, sensors, timestamps)
}

// ----- Discovery analytics (Section IV-E) -----

// Pearson returns the Pearson correlation coefficient of two series.
func Pearson(x, y []float64) float64 { return stats.Pearson(x, y) }

// CorrelationMatrix returns pairwise Pearson correlations between the rows
// of m (Fig. 12: rows of V are per-feature latent vectors).
func CorrelationMatrix(m *Matrix) *Matrix { return stats.CorrelationMatrix(m) }

// StockSimilarity is Equation (10): exp(−γ‖U_i − U_j‖_F²).
func StockSimilarity(ui, uj *Matrix, gamma float64) float64 {
	return stats.ExpSimilarity(ui, uj, gamma)
}

// Neighbor pairs an item index with a similarity/RWR score.
type Neighbor = stats.Neighbor

// KNN returns the k most similar items to query q under the similarity
// matrix (Table III(a)).
func KNN(sim *Matrix, q, k int) []Neighbor { return stats.KNN(sim, q, k) }

// RWRConfig configures Random Walk with Restart (restart prob 0.15, 100
// iterations in the paper).
type RWRConfig = stats.RWRConfig

// DefaultRWRConfig matches Section IV-E.
func DefaultRWRConfig() RWRConfig { return stats.DefaultRWRConfig() }

// RWR returns Random-Walk-with-Restart scores over the similarity graph adj
// from query q (Table III(b)).
func RWR(adj *Matrix, q int, cfg RWRConfig) []float64 { return stats.RWR(adj, q, cfg) }

// SimilarityGraph builds the Equation (11) adjacency: sim(i,j) off the
// diagonal, zeros on it.
func SimilarityGraph(n int, sim func(i, j int) float64) *Matrix {
	return stats.SimilarityGraph(n, sim)
}
