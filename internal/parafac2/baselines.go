package parafac2

import (
	"context"
	"time"

	"repro/internal/compute"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/scheduler"
	"repro/internal/tensor"
)

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
// The context is checked before the deterministic preprocessing, before
// every ALS iteration, and between the parallel phases inside one; the
// unwrapped ctx.Err() is returned promptly.
func RDALSCtx(ctx context.Context, t *tensor.Irregular, cfg Config) (*Result, error) {
	if err := cfg.validate(t); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pool, done := cfg.runtimePool()
	defer done()
	start := time.Now()
	r := cfg.Rank
	k := t.K()

	// --- Preprocessing: deterministic truncated SVD of ‖_k X_kᵀ --------
	concat := make([]*mat.Dense, k)
	for kk, s := range t.Slices {
		concat[kk] = s.T()
	}
	wide := mat.HConcat(concat...) // J × ΣI_k
	svd := lapack.TruncatedWith(wide, r, pool)
	uc := svd.U // J × R, column orthonormal

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reduced := make([]*mat.Dense, k)
	pool.RunPartitioned(scheduler.Partition(t.Rows(), pool.Workers()), func(kk int) {
		reduced[kk] = t.Slices[kk].Mul(uc) // I_k × R
	})
	rt := tensor.MustIrregular(reduced)
	preprocess := time.Since(start)

	// --- ALS on the reduced tensor -------------------------------------
	g := rng.New(cfg.Seed)
	h, vTilde, s := initCommon(g, r, k, r)
	q := make([]*mat.Dense, k)

	res := &Result{S: s}
	// Preprocessed data: the reduced slices plus the basis U_c.
	res.PreprocessedBytes = rt.SizeBytes() + int64(uc.Rows*uc.Cols)*8
	res.PreprocessTime = preprocess

	iterStart := time.Now()
	prev := -1.0
	for it := 0; it < cfg.MaxIters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iters = it + 1
		updateQALS(ctx, rt, h, vTilde, s, q, pool)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		ySlices := make([]*mat.Dense, k)
		pool.ParallelFor(k, func(kk int) {
			ySlices[kk] = q[kk].TMul(rt.Slices[kk])
		})
		y := tensor.MustDense3(ySlices)
		h, vTilde = cpSweep(y, h, vTilde, s, cfg)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Convergence on the FULL reconstruction error (the defining
		// inefficiency of RD-ALS's iteration phase).
		vFull := uc.Mul(vTilde)
		cur := reconstructionError2(t, q, h, vFull, s, pool)
		if cfg.TrackConvergence {
			res.ConvergenceTrace = append(res.ConvergenceTrace, cur)
		}
		if cfg.Progress != nil && !cfg.Progress(res.Iters, cur) {
			prev = cur
			break
		}
		if prev >= 0 && relChange(prev, cur) < cfg.Tol {
			prev = cur
			break
		}
		prev = cur
	}
	res.IterTime = time.Since(iterStart)

	res.H, res.V = h, uc.Mul(vTilde)
	res.SetQ(q)
	res.TotalTime = time.Since(start)
	res.Fitness = fitnessWith(t, res, pool)
	res.FitnessKind = FitnessTrue
	return res, nil
}

// SPARTanCtx implements a SPARTan-style baseline (Perros et al., KDD 2017)
// adapted to dense tensors. SPARTan's contribution is a parallel,
// slice-blocked computation of the MTTKRPs inside PARAFAC2-ALS that never
// materializes the projected tensor Y or the Khatri-Rao products; its
// asymptotic per-iteration cost on dense data is the same as PARAFAC2-ALS
// (it exploits *sparsity* for its headline wins, which dense data lacks —
// the very observation motivating DPar2).
//
// The context is checked before every ALS iteration and between the
// parallel phases inside one; the unwrapped ctx.Err() is returned promptly.
func SPARTanCtx(ctx context.Context, t *tensor.Irregular, cfg Config) (*Result, error) {
	if err := cfg.validate(t); err != nil {
		return nil, err
	}
	pool, done := cfg.runtimePool()
	defer done()
	start := time.Now()
	g := rng.New(cfg.Seed)
	r := cfg.Rank
	k := t.K()

	h, v, s := initCommon(g, t.J, k, r)
	q := make([]*mat.Dense, k)

	res := &Result{S: s, PreprocessedBytes: t.SizeBytes()}

	iterStart := time.Now()
	prev := -1.0
	for it := 0; it < cfg.MaxIters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iters = it + 1
		updateQALS(ctx, t, h, v, s, q, pool)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Slice-parallel fused MTTKRP accumulation: each worker owns a
		// block of slices and accumulates partial G⁽¹⁾/G⁽²⁾/G⁽³⁾ without
		// ever materializing Y. The Y_k = Q_kᵀ X_k projection is fused in.
		w := wMatrix(s)

		g1, g2, g3, ySlices := spartanMTTKRP(t, q, w, v, h, pool)

		h = solveUpdate(g1, w.Gram().HadamardInPlace(v.Gram()), cfg)
		// Recompute mode-2/3 with the updated H for ALS correctness; the
		// fused pass returned Y so these are cheap (R×J slices).
		y := tensor.MustDense3(ySlices)
		g2 = y.MTTKRP(2, w, h)
		v = solveUpdate(g2, w.Gram().HadamardInPlace(h.Gram()), cfg)
		g3 = y.MTTKRP(3, v, h)
		w = solveUpdate(g3, v.Gram().HadamardInPlace(h.Gram()), cfg)
		projectW(w, cfg)
		unpackW(w, s)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		cur := reconstructionError2(t, q, h, v, s, pool)
		if cfg.TrackConvergence {
			res.ConvergenceTrace = append(res.ConvergenceTrace, cur)
		}
		if cfg.Progress != nil && !cfg.Progress(res.Iters, cur) {
			prev = cur
			break
		}
		if prev >= 0 && relChange(prev, cur) < cfg.Tol {
			prev = cur
			break
		}
		prev = cur
	}
	res.IterTime = time.Since(iterStart)

	res.H, res.V = h, v
	res.SetQ(q)
	res.TotalTime = time.Since(start)
	res.Fitness = fitnessWith(t, res, pool)
	res.FitnessKind = FitnessTrue
	return res, nil
}

// spartanMTTKRP computes the mode-1 MTTKRP G⁽¹⁾ = Y(1)(W ⊙ V) with the
// projection Y_k = Q_kᵀ X_k fused in, in parallel over slices, and returns
// the projected slices for the subsequent mode-2/3 updates. Each slice's
// R×R contribution is reduced in slice order, so the result is independent
// of the pool width.
func spartanMTTKRP(t *tensor.Irregular, q []*mat.Dense, w, v, h *mat.Dense, pool *compute.Pool) (g1, g2, g3 *mat.Dense, ySlices []*mat.Dense) {
	k := t.K()
	r := h.Cols
	ySlices = make([]*mat.Dense, k)
	contribs := make([]*mat.Dense, k)
	pool.ParallelFor(k, func(kk int) {
		// Fused: Y_k = Q_kᵀ X_k, then contribution W(k,:) ⊙ (Y_k V).
		yk := q[kk].TMul(t.Slices[kk]) // R × J
		ySlices[kk] = yk
		yv := yk.Mul(v) // R × R
		wrow := w.Row(kk)
		for i := 0; i < r; i++ {
			yrow := yv.Row(i)
			for rr := 0; rr < r; rr++ {
				yrow[rr] *= wrow[rr]
			}
		}
		contribs[kk] = yv
	})
	g1 = mat.New(r, r)
	for _, c := range contribs {
		g1.AddInPlace(c)
	}
	return g1, nil, nil, ySlices
}
