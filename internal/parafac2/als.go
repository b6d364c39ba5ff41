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

// ALSCtx runs classical PARAFAC2-ALS (Algorithm 2 of the paper; Kiers, ten
// Berge & Bro 1999). Every iteration touches every element of the input
// tensor: the Q_k update computes an SVD of X_k V S_k Hᵀ, and the projected
// tensor Y with slices Q_kᵀ X_k feeds one CP-ALS sweep for H, V, W.
//
// This is the reference baseline: slow on large dense tensors precisely
// because of those per-iteration passes over {X_k}, which is the cost DPar2
// removes.
//
// The context is checked before every ALS iteration and between the
// parallel phases inside one (Q update, projection, CP sweep, convergence
// pass); the unwrapped ctx.Err() is returned promptly.
func ALSCtx(ctx context.Context, t *tensor.Irregular, cfg Config) (*Result, error) {
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

	res := &Result{
		S:                 s,
		PreprocessedBytes: t.SizeBytes(), // no preprocessing: iterates on the input
	}

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

		// Build the projected tensor Y_k = Q_kᵀ X_k (R × J).
		ySlices := make([]*mat.Dense, k)
		pool.ParallelFor(k, func(kk int) {
			ySlices[kk] = q[kk].TMul(t.Slices[kk])
		})
		y := tensor.MustDense3(ySlices)

		// One CP-ALS sweep on Y updates H (mode 1), V (mode 2), W (mode 3).
		h, v = cpSweep(y, h, v, s, cfg)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Convergence: full reconstruction error (this is what makes the
		// baseline's per-iteration cost high — Section IV-B).
		cur := reconstructionError2(t, q, h, v, s, pool)
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

// updateQALS refreshes every Q_k: Q_k ← Z'_k P'_kᵀ where
// Z'_k Σ' P'_kᵀ = SVD(X_k V S_k Hᵀ) truncated at rank R (lines 4-5, Alg. 2).
// This is the polar-factor solution of the orthogonal Procrustes problem.
// A cancelled ctx skips the remaining slices (callers re-check ctx after the
// phase and discard the partial update).
func updateQALS(ctx context.Context, t *tensor.Irregular, h, v *mat.Dense, s [][]float64, q []*mat.Dense, pool *compute.Pool) {
	r := h.Rows
	arena := compute.Shared()
	// VS_kHᵀ is J×R; precompute V once per k with the diagonal folded in.
	pool.RunPartitioned(scheduler.Partition(t.Rows(), pool.Workers()), func(k int) {
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
// the projected tensor. It returns the new H and V and writes the new S_k
// diagonals in place.
func cpSweep(y *tensor.Dense3, h, v *mat.Dense, s [][]float64, cfg Config) (hOut, vOut *mat.Dense) {
	w := wMatrix(s)

	// H ← Y(1)(W ⊙ V)(WᵀW ∗ VᵀV)⁺
	g1 := y.MTTKRP(1, w, v)
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
// input element — parallel over slices, reduced in slice order.
func reconstructionError2(t *tensor.Irregular, q []*mat.Dense, h, v *mat.Dense, s [][]float64, pool *compute.Pool) float64 {
	arena := compute.Shared()
	errs := make([]float64, t.K())
	pool.ParallelFor(t.K(), func(kk int) {
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
