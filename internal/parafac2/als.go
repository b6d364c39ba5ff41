package parafac2

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/compute"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/tensor"
)

// ErrNonFinite reports a NaN or ±Inf convergence measure: the input held a
// non-finite value, or the factors diverged. Every method returns it
// (wrapped with the iteration number) instead of a result, and AppendCtx
// returns it for a non-finite appended slice.
var ErrNonFinite = errors.New("parafac2: non-finite value (NaN or ±Inf input, or diverging factors)")

// iterate is the one alternating loop every method runs. step performs one
// iteration (0-based it) and returns its convergence measure; iterate owns
// what each method would otherwise repeat: the ctx check before every
// iteration and after the last, Result.Iters, the non-finite check (before
// Progress sees the value), the single Progress call, the Tol stop on the
// relative change of the measure, and Result.IterTime. It returns the last
// measure, which is meaningful only when res.Iters > 0.
func iterate(ctx context.Context, cfg Config, res *Result, step func(it int) (float64, error)) (float64, error) {
	start := time.Now()
	prev := -1.0
	for it := 0; it < cfg.MaxIters; it++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		res.Iters = it + 1
		cur, err := step(it)
		if err != nil {
			return 0, err
		}
		if math.IsNaN(cur) || math.IsInf(cur, 0) {
			return 0, fmt.Errorf("%w: convergence measure %v at iteration %d", ErrNonFinite, cur, res.Iters)
		}
		stop := cfg.Progress != nil && !cfg.Progress(res.Iters, cur) ||
			prev >= 0 && relChange(prev, cur) < cfg.Tol
		prev = cur
		if stop {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	res.IterTime = time.Since(start)
	return prev, nil
}

// claimBySize runs fn(lane, item) for every item across pool, claiming the
// items largest first (scheduler.LPTOrder of sizes): a lane that frees up
// takes the largest item left, which is Algorithm 4's greedy rule applied to
// the run times as they happen.
func claimBySize(pool *compute.Pool, sizes []int, fn func(lane, item int)) {
	order := scheduler.LPTOrder(sizes)
	pool.Claim(len(order), func(lane, i int) { fn(lane, order[i]) })
}

func relChange(prev, cur float64) float64 {
	if prev == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(prev-cur) / math.Abs(prev)
}

// baseline selects what sets one PARAFAC2-ALS baseline apart from the
// others. The registered method picks it; no option does.
type baseline uint8

const (
	plainALS baseline = iota // PARAFAC2-ALS on the input slices
	rdALS                    // iterate on the reduced slices X_k U_c
	spartan                  // slice-by-slice mode-1 MTTKRP
)

// ALSCtx runs classical PARAFAC2-ALS (Algorithm 2 of the paper; Kiers, ten
// Berge & Bro 1999). Every iteration touches every element of the input
// tensor: the Q_k update computes an SVD of X_k V S_k Hᵀ, and the projected
// tensor Y with slices Q_kᵀ X_k feeds one CP-ALS sweep for H, V, W.
//
// This is the reference baseline: slow on large dense tensors precisely
// because of those per-iteration passes over {X_k}, which is the cost DPar2
// removes.
//
// The context is checked before every ALS iteration, after the Q update,
// after the CP sweep and after the last iteration; the unwrapped ctx.Err()
// is returned promptly. RDALSCtx and SPARTanCtx check it at the same points.
func ALSCtx(ctx context.Context, t *tensor.Irregular, cfg Config) (*Result, error) {
	return alsRun(ctx, t, cfg, plainALS)
}

// RDALSCtx implements the RD-ALS baseline (Cheng & Haardt, "Efficient
// computation of the PARAFAC2 decomposition", ACSCC 2019) as the paper
// describes it: a one-time deterministic dimensionality reduction followed
// by PARAFAC2-ALS on the reduced slices.
//
// Preprocessing computes a truncated SVD of the horizontal concatenation
// ‖_k X_kᵀ ∈ R^{J×ΣI_k} — a single expensive deterministic factorization
// (this is exactly why Fig. 9(a) shows RD-ALS preprocessing up to 10×
// slower than DPar2's per-slice randomized sketches). The left factor
// U_c ∈ R^{J×R} then reduces every slice to X̃_k = X_k U_c ∈ R^{I_k×R},
// ALS runs on {X̃_k}, and the final V is lifted back as U_c Ṽ.
//
// Per the paper (Section IV-B), RD-ALS checks convergence with the *full*
// reconstruction error against the original tensor each iteration, which
// keeps its per-iteration cost proportional to the input size.
//
// The context is also checked before and after the preprocessing SVD.
func RDALSCtx(ctx context.Context, t *tensor.Irregular, cfg Config) (*Result, error) {
	return alsRun(ctx, t, cfg, rdALS)
}

// SPARTanCtx implements a SPARTan-style baseline (Perros et al., KDD 2017)
// adapted to dense tensors. SPARTan's contribution is a parallel,
// slice-blocked computation of the MTTKRPs inside PARAFAC2-ALS; here the
// mode-1 MTTKRP is accumulated slice by slice inside the parallel
// Y_k = Q_kᵀ X_k pass. Its asymptotic per-iteration cost on dense data is
// the same as PARAFAC2-ALS (it exploits *sparsity* for its headline wins,
// which dense data lacks — the very observation motivating DPar2), and it
// computes exactly PARAFAC2-ALS's bits.
func SPARTanCtx(ctx context.Context, t *tensor.Irregular, cfg Config) (*Result, error) {
	return alsRun(ctx, t, cfg, spartan)
}

// alsRun is the one PARAFAC2-ALS body behind the three baselines. It
// iterates on the input slices, or on RD-ALS's reduced slices, and always
// measures convergence against the input tensor t.
func alsRun(ctx context.Context, t *tensor.Irregular, cfg Config, m baseline) (*Result, error) {
	if err := cfg.validate(t); err != nil {
		return nil, err
	}
	pool, done := cfg.runtimePool()
	defer done()
	start := time.Now()
	res := &Result{PreprocessedBytes: t.SizeBytes()} // no preprocessing: iterates on the input
	x, uc := t, (*mat.Dense)(nil)
	if m == rdALS {
		var err error
		if x, uc, err = rdReduce(ctx, t, cfg.Rank, pool); err != nil {
			return nil, err
		}
		// Preprocessed data: the reduced slices plus the basis U_c.
		res.PreprocessedBytes = x.SizeBytes() + int64(uc.Rows*uc.Cols)*8
		res.PreprocessTime = time.Since(start)
	}

	h, v, s := initCommon(rng.New(cfg.Seed), x.J, x.K(), cfg.Rank)
	res.S = s
	q := make([]*mat.Dense, x.K())
	vFull := v // V lifted back to J rows (RD-ALS), else V itself
	_, err := iterate(ctx, cfg, res, func(int) (float64, error) {
		updateQALS(ctx, x, h, v, s, q, pool)
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		h, v = cpSweep(x, q, h, v, s, cfg, m == spartan, pool)
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		vFull = v
		if uc != nil {
			vFull = uc.Mul(v)
		}
		// Convergence: full reconstruction error against the input (this
		// is what makes the baselines' per-iteration cost high —
		// Section IV-B).
		return reconstructionError2(t, q, h, vFull, s, pool), nil
	})
	if err != nil {
		return nil, err
	}

	res.H, res.V = h, vFull
	res.SetQ(q)
	res.TotalTime = time.Since(start)
	res.Fitness = FitnessWith(t, res, pool)
	res.FitnessKind = FitnessTrue
	return res, nil
}

// rdReduce is RD-ALS's one-time preprocessing: a deterministic truncated
// SVD of ‖_k X_kᵀ ∈ R^{J×ΣI_k}, whose left factor U_c ∈ R^{J×R} (column
// orthonormal) reduces every slice to X_k U_c ∈ R^{I_k×R}.
func rdReduce(ctx context.Context, t *tensor.Irregular, r int, pool *compute.Pool) (*tensor.Irregular, *mat.Dense, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	concat := make([]*mat.Dense, t.K())
	for kk, s := range t.Slices {
		concat[kk] = s.T()
	}
	uc := lapack.TruncatedWith(mat.HConcat(concat...), r, pool).U
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	reduced := make([]*mat.Dense, t.K())
	claimBySize(pool, t.Rows(), func(_, kk int) {
		reduced[kk] = t.Slices[kk].Mul(uc) // I_k × R
	})
	return tensor.MustIrregular(reduced), uc, nil
}

// updateQALS refreshes every Q_k: Q_k ← Z'_k P'_kᵀ where
// Z'_k Σ' P'_kᵀ = SVD(X_k V S_k Hᵀ) truncated at rank R (lines 4-5, Alg. 2).
// This is the polar-factor solution of the orthogonal Procrustes problem.
// A cancelled ctx skips the remaining slices (callers re-check ctx after the
// phase and discard the partial update).
func updateQALS(ctx context.Context, t *tensor.Irregular, h, v *mat.Dense, s [][]float64, q []*mat.Dense, pool *compute.Pool) {
	r := h.Rows
	arena := compute.Shared()
	// VS_kHᵀ is J×R; precompute V once per k with the diagonal folded in.
	claimBySize(pool, t.Rows(), func(_, k int) {
		if ctx.Err() != nil {
			return
		}
		vs := arena.GetUninit(v.Rows, v.Cols)
		v.ScaleColumnsInto(vs, s[k])
		vsh := arena.GetUninit(v.Rows, h.Rows)
		vs.MulTInto(vsh, h, nil) // J × R
		m := arena.GetUninit(t.Slices[k].Rows, vsh.Cols)
		t.Slices[k].MulInto(m, vsh, nil) // I_k × R
		d := lapack.Truncated(m, r)
		q[k] = d.U.MulT(d.V) // Z'_k P'_kᵀ, I_k × R, column orthonormal
		arena.Put(vs, vsh, m)
	})
}

// cpSweep runs the single CP-ALS iteration of lines 11-16, Algorithm 2 on
// the projected tensor Y, whose slices Y_k = Q_kᵀ X_k (R × J) it builds in
// parallel over slices, claimed largest first. It returns the new H and V
// and writes the new S_k diagonals in place. sliceMTTKRP selects SPARTan's
// mode-1 kernel: each slice's R×R contribution W(k,:) ⊙ (Y_k V) is formed
// inside the projection pass and the contributions are summed in slice
// order, so the result is independent of the pool width.
func cpSweep(x *tensor.Irregular, q []*mat.Dense, h, v *mat.Dense, s [][]float64, cfg Config, sliceMTTKRP bool, pool *compute.Pool) (hOut, vOut *mat.Dense) {
	k, r := x.K(), h.Cols
	w := wMatrix(s)
	ySlices := make([]*mat.Dense, k)
	var contribs []*mat.Dense
	if sliceMTTKRP {
		contribs = make([]*mat.Dense, k)
	}
	claimBySize(pool, x.Rows(), func(_, kk int) {
		ySlices[kk] = q[kk].TMul(x.Slices[kk])
		if contribs == nil {
			return
		}
		yv := ySlices[kk].Mul(v) // R × R
		wrow := w.Row(kk)
		for i := 0; i < r; i++ {
			yrow := yv.Row(i)
			for rr := 0; rr < r; rr++ {
				yrow[rr] *= wrow[rr]
			}
		}
		contribs[kk] = yv
	})
	y := tensor.MustDense3(ySlices)

	// H ← Y(1)(W ⊙ V)(WᵀW ∗ VᵀV)⁺
	var g1 *mat.Dense
	if sliceMTTKRP {
		g1 = mat.New(r, r)
		for _, c := range contribs {
			g1.AddInPlace(c)
		}
	} else {
		g1 = y.MTTKRP(1, w, v)
	}
	h = solveUpdate(g1, w.Gram().HadamardInPlace(v.Gram()), cfg)

	// V ← Y(2)(W ⊙ H)(WᵀW ∗ HᵀH)⁺
	g2 := y.MTTKRP(2, w, h)
	v = solveUpdate(g2, w.Gram().HadamardInPlace(h.Gram()), cfg)

	// W ← Y(3)(V ⊙ H)(VᵀV ∗ HᵀH)⁺
	g3 := y.MTTKRP(3, v, h)
	w = solveUpdate(g3, v.Gram().HadamardInPlace(h.Gram()), cfg)
	projectW(w, cfg)
	unpackW(w, s)

	return h, v
}

// reconstructionError2 computes Σ_k ‖X_k − Q_k H S_k Vᵀ‖_F², touching every
// input element — slices claimed across the pool largest first, reduced in
// slice order.
func reconstructionError2(t *tensor.Irregular, q []*mat.Dense, h, v *mat.Dense, s [][]float64, pool *compute.Pool) float64 {
	arena := compute.Shared()
	errs := make([]float64, t.K())
	claimBySize(pool, t.Rows(), func(_, kk int) {
		xk := t.Slices[kk]
		hs := arena.GetUninit(h.Rows, h.Cols)
		h.ScaleColumnsInto(hs, s[kk])
		qh := arena.GetUninit(q[kk].Rows, hs.Cols)
		q[kk].MulInto(qh, hs, nil)
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
