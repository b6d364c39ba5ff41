// Package parafac2 implements PARAFAC2 decomposition of irregular dense
// tensors: the paper's contribution DPar2 (Algorithm 3) and the three
// baselines it is evaluated against — PARAFAC2-ALS (Algorithm 2, Kiers et
// al. 1999), RD-ALS (Cheng & Haardt 2019), and a SPARTan-style slice-parallel
// variant (Perros et al. 2017, adapted to dense data).
//
// The PARAFAC2 model approximates each slice X_k ∈ R^{I_k×J} as
//
//	X_k ≈ U_k S_k Vᵀ,   U_k = Q_k H,   Q_kᵀQ_k = I,
//
// with S_k diagonal and H, V shared across slices. All methods minimize
// Σ_k ‖X_k − Q_k H S_k Vᵀ‖_F² by alternating least squares.
//
// # One loop
//
// Every method is the same alternating loop: a Q_k update, one CP-ALS
// sweep for H, V and W, then a convergence measure. One function, iterate,
// runs it for all four: it checks the context before every iteration and
// after the last, counts Result.Iters, calls Config.Progress once per
// iteration, stops when the measure's relative change falls below
// Config.Tol, and records Result.IterTime. DPar2 supplies the Lemma 1-3
// body on the compressed slices. The three baselines share one
// PARAFAC2-ALS body: RD-ALS iterates on the reduced slices X_k U_c (still
// measuring convergence against X), and SPARTan accumulates the mode-1
// MTTKRP slice by slice; the registered method alone selects either.
//
// A NaN or ±Inf convergence measure ends the run with ErrNonFinite, wrapped
// with the iteration number, before Progress sees it. That one check covers
// non-finite input and diverging factors for every method, on every path
// that iterates (a decomposition, a stream create, an absorb refresh), so no
// non-finite result is ever returned. AppendCtx also rejects a non-finite
// slice up front, leaving the compressed representation unchanged.
//
// # Lazy factored Q
//
// DPar2 results keep Q in factored form, Q_k = A_k Z_k P_kᵀ, where A_k is the
// compressed basis and Z_k, P_k are R×R: the dense I_k×R slices are
// materialized lazily by the accessors (Result.Qk, Uk, UkRows,
// ReconstructSlice), never by the iteration itself. That makes a streaming
// Absorb touch only the new slices — no O(Σ_k I_k·R) pass over the history —
// and is what keeps absorb latency independent of the slices already seen.
// Each accessor call recomputes its slice (cheap relative to any use of the
// I_k×R output). Accessors are safe for concurrent use on an
// otherwise-unmodified Result.
//
// # Fitness kinds
//
// Result.Fitness carries one of two quantities, told apart by
// Result.FitnessKind: FitnessTrue is 1 − Σ‖X_k−X̂_k‖²/Σ‖X_k‖² against the
// input tensor (DPar2Ctx, ALSCtx, RDALSCtx, SPARTanCtx — anything that had
// the tensor in hand), while FitnessCompressed is the compressed-space
// estimate 1 − e/‖X̃‖² that DPar2FromCompressedCtx and streaming refreshes
// report (exact against the compressed approximation X̃, off from the true
// fitness only by the one-time compression error). Use FitnessWith to
// re-evaluate a result against a tensor when the true value is needed.
package parafac2

import (
	"fmt"
	"math"
	"time"

	"repro/internal/compute"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/state"
	"repro/internal/tensor"
)

// Config holds the knobs shared by every decomposition method in this
// package. The zero value is not usable; start from DefaultConfig.
type Config struct {
	// Rank is the target rank R.
	Rank int
	// MaxIters bounds the ALS iterations (the paper uses 32).
	MaxIters int
	// Tol stops iteration when the relative change of the convergence
	// measure between iterations falls below it.
	Tol float64
	// Threads is the width of the transient compute.Pool an entry point
	// builds for the call when Pool is nil, as for direct parafac2 callers
	// (tests, root benchmarks); the repro Engine always sets Pool to its
	// own. Threads <= 0 means serial.
	Threads int
	// Pool, when non-nil, is the long-lived compute runtime all parallel
	// phases run on; it overrides Threads. Set it to share one pool (and
	// its worker goroutines) across many decompositions — concurrent
	// decompositions may safely share a single Pool.
	Pool *compute.Pool
	// Seed drives factor initialization and randomized sketches.
	Seed uint64
	// Oversample and PowerIters configure randomized SVD (DPar2 only).
	Oversample int
	PowerIters int
	// ShardRows is the stage-1 sharding threshold (DPar2 only): a slice
	// with more than ShardRows rows is sketched in row shards of at most
	// ShardRows rows — each shard an independent work unit on the pool —
	// and the shard bases are merged by a second small randomized SVD.
	// (Thresholds below the sketch width Rank+Oversample are floored to
	// it: a shard shorter than the sketch could not compress anything.)
	// The A_k contract is unchanged (column orthonormal, I_k×R), peak
	// stage-1 scratch drops from O(I_k·(Rank+Oversample)) to
	// O(ShardRows·(Rank+Oversample)) per in-flight shard, and one tall
	// slice parallelizes across the whole pool instead of pinning one
	// worker. 0 means DefaultShardRows; negative disables sharding.
	ShardRows int

	// NonnegativeS constrains the S_k weights to be nonnegative by
	// projection after each W update — the most common of the practical
	// constraints COPA (Afshar et al., CIKM 2018) adds to PARAFAC2, useful
	// when weights are interpreted as intensities.
	NonnegativeS bool
	// Ridge adds λ·I to the Gram matrices of the normal-equation solves.
	// A small ridge (e.g. 1e-8·‖G‖) stabilizes near-collinear factors at
	// negligible fitness cost.
	Ridge float64

	// Progress, when non-nil, is invoked after every ALS iteration with
	// the 1-based iteration number and the current convergence measure.
	// Returning false stops the iteration early (e.g. user cancellation,
	// wall-clock budgets). Called from the decomposition goroutine.
	Progress func(iter int, measure float64) bool
}

// DefaultShardRows is the stage-1 sharding threshold applied when
// Config.ShardRows is 0: slices taller than 64k rows are sketched in row
// shards. At the default sketch width (rank 10 + oversample 8) a shard's
// scratch is ~64k·18 floats ≈ 9 MB — comfortably inside the workspace
// arena's recyclable bucket range (compute.MaxRecycleFloats).
const DefaultShardRows = 1 << 16

// NumericsEpoch names the arithmetic that produced a result's bits. Within
// one epoch, equal input and equal deterministic configuration give
// bit-identical factors; the result cache keys on the epoch so an entry
// written under another one misses instead of serving that epoch's bits.
//
// Rule: bump it whenever any method's computed bits change (a kernel, an
// operation order, an algorithmic shortcut), and re-pin the golden digests
// in golden_test.go in the same change. Epoch 1 is the arithmetic before
// DPar2 pre-rotated its Q-update SVDs by the previous iteration's P_k;
// epoch 2 adds that pre-rotation.
const NumericsEpoch = 2

// DefaultConfig mirrors the paper's experimental settings: rank 10, at most
// 32 iterations, 6 threads.
func DefaultConfig() Config {
	return Config{
		Rank:       10,
		MaxIters:   32,
		Tol:        1e-6,
		Threads:    6,
		Seed:       1,
		Oversample: 8,
		PowerIters: 1,
	}
}

// MaxPowerIters caps Config.PowerIters. Each power iteration adds two
// products over a whole slice (or shard) to its stage-1 sketch, and a
// sketch is not cancellable part-way through. One or two iterations already
// capture the dominant subspace to working precision (the defaults use 1;
// 0, 1 and 2 are the values in use), so the cap leaves generous headroom
// while keeping any one sketch's uncancellable work bounded.
const MaxPowerIters = 8

// CheckKnobs is the one range check on Config's deterministic knobs: Rank
// and MaxIters must be positive, Tol and Ridge finite and nonnegative,
// Oversample in [0, state.MaxDim] (a wider sketch than any matrix
// dimension only selects the exact SVD, and near MaxInt Rank+Oversample
// would overflow), and PowerIters in [0, MaxPowerIters]. It runs
// before any work wherever knobs enter: repro's Spec validation and option
// resolution (every Engine call and every HTTP request), the entry points
// that take a tensor, and RestoreStream on a checkpoint's stored
// configuration.
func (c Config) CheckKnobs() error {
	switch {
	case c.Rank <= 0:
		return fmt.Errorf("parafac2: Rank %d: must be positive", c.Rank)
	case c.MaxIters <= 0:
		return fmt.Errorf("parafac2: MaxIters %d: must be positive", c.MaxIters)
	case !(c.Tol >= 0) || math.IsInf(c.Tol, 1):
		return fmt.Errorf("parafac2: Tol %g: must be finite and >= 0", c.Tol)
	case c.Oversample < 0 || c.Oversample > state.MaxDim:
		return fmt.Errorf("parafac2: Oversample %d: must be in [0, %d]", c.Oversample, state.MaxDim)
	case c.PowerIters < 0 || c.PowerIters > MaxPowerIters:
		return fmt.Errorf("parafac2: PowerIters %d: must be in [0, %d]", c.PowerIters, MaxPowerIters)
	case !(c.Ridge >= 0) || math.IsInf(c.Ridge, 1):
		return fmt.Errorf("parafac2: Ridge %g: must be finite and >= 0", c.Ridge)
	}
	return nil
}

func (c Config) validate(t *tensor.Irregular) error {
	if err := c.CheckKnobs(); err != nil {
		return err
	}
	if c.Rank > t.J {
		return fmt.Errorf("parafac2: rank %d exceeds column count %d", c.Rank, t.J)
	}
	for k, s := range t.Slices {
		if c.Rank > s.Rows {
			return fmt.Errorf("parafac2: rank %d exceeds rows %d of slice %d", c.Rank, s.Rows, k)
		}
	}
	return nil
}

// ShardRowsThreshold resolves Config.ShardRows to the effective stage-1
// sharding threshold, in the form rsvd.NumShards takes: 0 means
// DefaultShardRows, negative disables sharding (expressed as 0, which
// NumShards treats as "never shard"). Exported as the single source of the
// resolution rule — reporting layers must use it rather than re-deriving
// the 0/negative convention.
func (c Config) ShardRowsThreshold() int {
	switch {
	case c.ShardRows == 0:
		return DefaultShardRows
	case c.ShardRows < 0:
		return 0
	}
	return c.ShardRows
}

// runtimePool resolves the compute pool for one decomposition call: the
// caller-provided Config.Pool, or a transient pool of width Threads
// (compute.NewPool's rule: Threads <= 0 means serial). done must be called
// when the decomposition returns (it closes the pool only if this call owns
// it).
func (c Config) runtimePool() (pool *compute.Pool, done func()) {
	if c.Pool != nil {
		return c.Pool, func() {}
	}
	p := compute.NewPool(c.Threads)
	return p, p.Close
}

// FitnessKind says what quantity Result.Fitness holds (see the package doc).
type FitnessKind uint8

const (
	// FitnessUnset means no fitness was computed (e.g. a result
	// deserialized from disk, or an iteration that never converged enough
	// to measure).
	FitnessUnset FitnessKind = iota
	// FitnessTrue is 1 − Σ‖X_k−X̂_k‖²/Σ‖X_k‖² against the input tensor.
	FitnessTrue
	// FitnessCompressed is the compressed-space estimate 1 − e/‖X̃‖²
	// reported when only the compressed representation was available
	// (DPar2FromCompressedCtx, streaming refreshes).
	FitnessCompressed
)

// String names the kind for logs and reports.
func (k FitnessKind) String() string {
	switch k {
	case FitnessTrue:
		return "true"
	case FitnessCompressed:
		return "compressed"
	}
	return "unset"
}

// Result is the output of a PARAFAC2 decomposition.
type Result struct {
	// H is the R×R common matrix; V is the J×R factor shared by all slices.
	H, V *mat.Dense
	// S holds the diagonal of each S_k (row k of W in the paper).
	S [][]float64

	// q holds the baselines' dense column-orthonormal Q_k (I_k × R). For
	// DPar2 it is nil: Q lives in factored form in fq and the accessors
	// materialize slices on demand.
	q []*mat.Dense
	// fq is the factored form Q_k = A_k Z_k P_kᵀ (DPar2 results only).
	fq *factoredQ

	// Iters is the number of ALS iterations executed.
	Iters int
	// Fitness is the model fit; FitnessKind says against what (the true
	// input tensor, or the compressed approximation — see the package doc).
	Fitness     float64
	FitnessKind FitnessKind

	// Timing breakdown.
	PreprocessTime time.Duration
	IterTime       time.Duration // total time in the ALS loop
	TotalTime      time.Duration

	// PreprocessedBytes is the footprint of preprocessed data the method
	// iterates on (input size for methods without preprocessing).
	PreprocessedBytes int64
}

// factoredQ holds Q in the factored form DPar2 produces: per-slice references
// to the compressed basis A_k (I_k×R, shared with the Compressed — immutable
// once built) plus the small R×R Z_k and P_k from the final Q-update SVDs.
type factoredQ struct {
	a, z, p []*mat.Dense
}

// qMaterializeHook, when non-nil, observes every O(I_k)-cost materialization
// from the factored form (slice index and row count). Tests install it to
// prove the streaming absorb path performs no per-old-slice work. Install
// only while no accessors run concurrently.
var qMaterializeHook func(k, rows int)

func observeMaterialize(k, rows int) {
	if h := qMaterializeHook; h != nil {
		h(k, rows)
	}
}

// qk materializes Q_k = (A_k Z_k) P_kᵀ — the same operation order (and arena
// scratch for the A_k Z_k intermediate) the eager loop used, so materialized
// slices are bit-identical to the old behavior.
func (f *factoredQ) qk(k int) *mat.Dense {
	observeMaterialize(k, f.a[k].Rows)
	arena := compute.Shared()
	az := arena.GetUninit(f.a[k].Rows, f.z[k].Cols)
	f.a[k].MulInto(az, f.z[k], nil)
	out := az.MulT(f.p[k])
	arena.Put(az)
	return out
}

// mulInto writes rows [lo, hi) of Q_k·B into out ∈ R^{(hi−lo)×cols} by
// folding B through the small factors first: A_k[lo:hi] · (Z_k (P_kᵀ B)).
// Cost O((hi−lo)·R·cols + R²·cols) — the cheap path for fitness and
// row-window accessors.
func (f *factoredQ) mulInto(out *mat.Dense, k, lo, hi int, b *mat.Dense, arena *compute.Arena) {
	observeMaterialize(k, hi-lo)
	r := f.z[k].Rows
	t1 := arena.GetUninit(r, b.Cols)
	f.p[k].TMulInto(t1, b, nil)
	t2 := arena.GetUninit(r, b.Cols)
	f.z[k].MulInto(t2, t1, nil)
	f.a[k].RowView(lo, hi).MulInto(out, t2, nil)
	arena.Put(t1, t2)
}

// K returns the number of slices the result covers.
func (r *Result) K() int {
	if r.q != nil {
		return len(r.q)
	}
	if r.fq != nil {
		return len(r.fq.a)
	}
	return 0
}

// SliceRows returns I_k, the row count of slice k.
func (r *Result) SliceRows(k int) int {
	if r.q != nil {
		return r.q[k].Rows
	}
	return r.fq.a[k].Rows
}

// Qk returns the column-orthonormal Q_k (I_k × R). Dense results (the
// baselines) return the stored matrix, which the caller must not modify;
// factored results materialize a fresh matrix per call.
func (r *Result) Qk(k int) *mat.Dense {
	if r.q != nil {
		return r.q[k]
	}
	return r.fq.qk(k)
}

// Factored reports whether Q is held in factored form (DPar2 results).
func (r *Result) Factored() bool { return r.fq != nil }

// FactoredQ exposes the factored form (A_k, Z_k, P_k with Q_k = A_k Z_k P_kᵀ)
// when the result holds one — serialization uses it to persist the compact
// representation. The returned slices are the result's own state: callers
// must not modify them.
func (r *Result) FactoredQ() (a, z, p []*mat.Dense, ok bool) {
	if r.fq == nil {
		return nil, nil, nil, false
	}
	return r.fq.a, r.fq.z, r.fq.p, true
}

// SetFactoredQ installs a factored Q (deserialization and the DPar2 iteration
// use it). The three slices must have equal length, with z[k], p[k] ∈ R^{R×R}
// and a[k] ∈ R^{I_k×R}; the Result takes ownership.
func (r *Result) SetFactoredQ(a, z, p []*mat.Dense) {
	if len(a) != len(z) || len(a) != len(p) {
		panic("parafac2: SetFactoredQ with mismatched slice counts")
	}
	r.fq = &factoredQ{a: a, z: z, p: p}
	r.q = nil
}

// SetQ installs dense Q_k slices (the eager methods and deserialization use
// it); the Result takes ownership.
func (r *Result) SetQ(q []*mat.Dense) {
	r.q = q
	r.fq = nil
}

// Uk materializes U_k = Q_k H for slice k.
func (r *Result) Uk(k int) *mat.Dense { return r.Qk(k).Mul(r.H) }

// UkRows materializes only rows [lo, hi) of U_k = Q_k H. On a factored
// result this costs O((hi−lo)·R² + R³) instead of the O(I_k·R²) of a full Uk
// — the path for window queries (e.g. aligning stocks on a trailing window).
func (r *Result) UkRows(k, lo, hi int) *mat.Dense {
	if r.Factored() {
		arena := compute.Shared()
		out := mat.New(hi-lo, r.H.Cols)
		r.fq.mulInto(out, k, lo, hi, r.H, arena)
		return out
	}
	return r.q[k].RowView(lo, hi).Mul(r.H)
}

// ReconstructSlice returns X̂_k = Q_k H S_k Vᵀ. Factored results fold H S_k
// through the small factors (no dense Q_k is materialized), which matches
// the eager reconstruction to round-off rather than bitwise.
func (r *Result) ReconstructSlice(k int) *mat.Dense {
	hs := r.H.ScaleColumns(r.S[k])
	if r.Factored() {
		arena := compute.Shared()
		rows := r.SliceRows(k)
		qh := arena.GetUninit(rows, hs.Cols)
		r.fq.mulInto(qh, k, 0, rows, hs, arena)
		out := qh.MulT(r.V)
		arena.Put(qh)
		return out
	}
	return r.q[k].Mul(hs).MulT(r.V)
}

// FitnessWith computes 1 − Σ_k‖X_k − X̂_k‖_F² / Σ_k‖X_k‖_F² of a
// factorization against the tensor it was computed from, on pool (nil
// evaluates serially). Fitness close to 1 means the model approximates the
// data well (Section IV-A of the paper). Slice reconstructions run in
// parallel in arena scratch (see reconstructionError2) and per-slice errors
// are reduced in slice order, so the value is deterministic for any pool
// width. Factored results reconstruct through the small factors
// (factoredError2) without ever materializing a dense Q_k.
func FitnessWith(t *tensor.Irregular, r *Result, pool *compute.Pool) float64 {
	var errSum float64
	if r.Factored() {
		errSum = factoredError2(t, r.fq, r.H, r.V, r.S, pool)
	} else {
		errSum = reconstructionError2(t, r.q, r.H, r.V, r.S, pool)
	}
	n := t.Norm2()
	if n == 0 {
		return 1
	}
	return 1 - errSum/n
}

// factoredError2 is reconstructionError2 for factored results: per slice,
// Q_k (H S_k) is folded right-to-left (A_k · (Z_k (P_kᵀ (H S_k)))), so the
// only I_k-sized intermediates are the Q_k H S_k product and the
// reconstruction itself — both arena scratch. Reduced in slice order.
func factoredError2(t *tensor.Irregular, fq *factoredQ, h, v *mat.Dense, s [][]float64, pool *compute.Pool) float64 {
	arena := compute.Shared()
	errs := make([]float64, t.K())
	pool.ParallelFor(t.K(), func(kk int) {
		xk := t.Slices[kk]
		hs := arena.GetUninit(h.Rows, h.Cols)
		h.ScaleColumnsInto(hs, s[kk])
		qh := arena.GetUninit(xk.Rows, hs.Cols)
		fq.mulInto(qh, kk, 0, xk.Rows, hs, arena)
		rec := arena.GetUninit(xk.Rows, xk.Cols)
		qh.MulTInto(rec, v, nil)
		d := xk.FrobDist(rec)
		errs[kk] = d * d
		arena.Put(hs, qh, rec)
	})
	var sum float64
	for _, e := range errs {
		sum += e
	}
	return sum
}

// initCommon draws the shared-factor initialization used by all methods:
// H = I + small noise (well conditioned), V random orthonormal-ish Gaussian,
// S_k = 1 vectors. Matching initializations keep method comparisons fair.
func initCommon(g *rng.RNG, j, k, r int) (h, v *mat.Dense, s [][]float64) {
	h = mat.Identity(r)
	noise := mat.Gaussian(g, r, r).Scale(0.1)
	h.AddInPlace(noise)
	v = mat.Gaussian(g, j, r)
	// One backing slab for all K diagonals keeps the allocation count
	// independent of K (the streaming refresh allocates this per Absorb).
	s = make([][]float64, k)
	flat := make([]float64, k*r)
	for i := range flat {
		flat[i] = 1
	}
	for kk := range s {
		s[kk] = flat[kk*r : (kk+1)*r : (kk+1)*r]
	}
	return h, v, s
}

// newRRBlocks allocates k R×R matrices on one backing slab (three allocations
// total, independent of k) — the per-slice Z_k/P_k/T_k working state of the
// DPar2 iteration, where a per-matrix allocation would make the streaming
// absorb cost grow with the slices already seen.
func newRRBlocks(k, r int) []*mat.Dense {
	hdrs := make([]mat.Dense, k)
	ptrs := make([]*mat.Dense, k)
	slab := make([]float64, k*r*r)
	for i := 0; i < k; i++ {
		hdrs[i] = mat.Dense{Rows: r, Cols: r, Data: slab[i*r*r : (i+1)*r*r : (i+1)*r*r]}
		ptrs[i] = &hdrs[i]
	}
	return ptrs
}

// wMatrix packs the S_k diagonals into the K×R matrix W of Algorithm 2.
func wMatrix(s [][]float64) *mat.Dense {
	k := len(s)
	r := len(s[0])
	w := mat.New(k, r)
	for kk := 0; kk < k; kk++ {
		copy(w.Row(kk), s[kk])
	}
	return w
}

// unpackW writes the rows of W back into the S_k diagonal vectors.
func unpackW(w *mat.Dense, s [][]float64) {
	for kk := range s {
		copy(s[kk], w.Row(kk))
	}
}

// solveUpdate performs the right-division B·G⁺ of an ALS normal equation,
// applying the configured ridge to the Gram matrix first.
func solveUpdate(b, gram *mat.Dense, cfg Config) *mat.Dense {
	if cfg.Ridge > 0 {
		gram = gram.Clone()
		for i := 0; i < gram.Rows; i++ {
			gram.Set(i, i, gram.At(i, i)+cfg.Ridge)
		}
	}
	return lapack.SolveGram(b, gram)
}

// projectW applies the configured constraints to the freshly updated W.
func projectW(w *mat.Dense, cfg Config) {
	if !cfg.NonnegativeS {
		return
	}
	for i, v := range w.Data {
		if v < 0 {
			w.Data[i] = 0
		}
	}
}
