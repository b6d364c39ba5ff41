package parafac2

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/rsvd"
	"repro/internal/tensor"
)

// Compressed holds the two-stage compression of an irregular tensor
// (Section III-B): X_k ≈ A_k F⁽ᵏ⁾ E Dᵀ where
//
//	stage 1:  X_k ≈ A_k B_k C_kᵀ                (randomized SVD per slice)
//	stage 2:  M = ‖_k (C_k B_k) ≈ D E Fᵀ        (randomized SVD of J×KR)
//
// A_k keeps its column-orthogonality, which is what lets the Q_k update run
// on R×R matrices (Section III-D).
type Compressed struct {
	A []*mat.Dense // A_k: I_k × R, column orthonormal
	D *mat.Dense   // J × R, column orthonormal
	E []float64    // diagonal of E (R singular values of M)
	F []*mat.Dense // F⁽ᵏ⁾: R × R vertical blocks of F ∈ R^{KR×R}

	J    int
	Rank int
}

// SizeBytes reports the footprint of the preprocessed data
// (Theorem 2: O(Σ I_k R + K R² + J R)).
func (c *Compressed) SizeBytes() int64 {
	var n int64
	for _, a := range c.A {
		n += int64(a.Rows * a.Cols)
	}
	n += int64(c.D.Rows * c.D.Cols)
	n += int64(len(c.E))
	for _, f := range c.F {
		n += int64(f.Rows * f.Cols)
	}
	return n * 8
}

// Clone returns an independent copy: AppendCtx on the original no longer
// affects the clone and vice versa. The A_k bases are shared, not copied —
// they are immutable once built (AppendCtx only appends new ones; the
// in-place basis rotation touches F blocks only) — so a clone costs
// O(K·R² + J·R).
func (c *Compressed) Clone() *Compressed {
	f := make([]*mat.Dense, len(c.F))
	for i, b := range c.F {
		f[i] = b.Clone()
	}
	return &Compressed{
		A:    append([]*mat.Dense(nil), c.A...),
		D:    c.D.Clone(),
		E:    append([]float64(nil), c.E...),
		F:    f,
		J:    c.J,
		Rank: c.Rank,
	}
}

// SliceApprox materializes X̃_k = A_k F⁽ᵏ⁾ E Dᵀ (Equation 6) — used by tests
// and the convergence identity, not by the iteration hot path.
func (c *Compressed) SliceApprox(k int) *mat.Dense {
	return c.A[k].Mul(c.F[k].ScaleColumns(c.E)).MulT(c.D)
}

// CompressCtx runs the two-stage compression (lines 2-6 of Algorithm 3).
// Stage 1 is parallelized with the greedy rule of Algorithm 4, slices
// claimed largest first, because the randomized-SVD cost of slice k is
// proportional to I_k.
//
// The context is checked before each compression phase and between
// per-slice sketches, and the unwrapped ctx.Err() is returned as soon as it
// is observed.
func CompressCtx(ctx context.Context, t *tensor.Irregular, cfg Config) (*Compressed, error) {
	pool, done := cfg.runtimePool()
	defer done()
	return compressWith(ctx, t, cfg, pool)
}

func compressWith(ctx context.Context, t *tensor.Irregular, cfg Config, pool *compute.Pool) (*Compressed, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := rng.New(cfg.Seed)
	r := cfg.Rank
	k := t.K()
	opts := rsvd.Options{Oversample: cfg.Oversample, PowerIters: cfg.PowerIters}

	// Pre-split deterministic child generators so the result does not
	// depend on goroutine scheduling.
	gens := make([]*rng.RNG, k)
	for kk := 0; kk < k; kk++ {
		gens[kk] = g.Split()
	}

	// Stage 1: per-slice randomized SVD, load-balanced by row count, with
	// slices above the ShardRows threshold split into row shards (each
	// shard its own work unit). A cancelled context skips the remaining
	// sketches; the partial arrays are discarded below.
	a, cb := stage1Sketches(ctx, t.Slices, gens, cfg, pool)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: randomized SVD of M = ‖_k (C_k B_k) ∈ R^{J×KR}. One big
	// factorization — hand the pool to its kernels instead.
	m := mat.HConcat(cb...)
	opts.Runner = pool
	d2 := rsvd.Decompose(g, m, r, opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	f := make([]*mat.Dense, k)
	for kk := 0; kk < k; kk++ {
		f[kk] = d2.V.RowBlock(kk*r, (kk+1)*r)
	}
	return &Compressed{A: a, D: d2.U, E: d2.S, F: f, J: t.J, Rank: r}, nil
}

// stage1Sketches runs the per-slice stage-1 randomized SVDs (A_k, C_k B_k)
// for CompressCtx and AppendCtx. Slices taller than cfg.ShardRows are routed
// through the row-sharded path: each shard is an independent work unit, so
// the pool balances over shards rather than whole slices — one tall slice
// spreads across the whole pool instead of pinning a worker — and
// per-shard scratch stays O(ShardRows·(Rank+Oversample)), inside the arena's
// recyclable bucket range. gens must hold one pre-split generator per slice;
// sharded slices derive their per-shard and merge children from their slice
// generator (rsvd.ShardGens), keeping results bit-reproducible for any pool
// width or partition.
//
// On context cancellation the remaining units and merges are skipped; the
// caller must check ctx.Err() and discard the partial arrays.
func stage1Sketches(ctx context.Context, slices []*mat.Dense, gens []*rng.RNG, cfg Config, pool *compute.Pool) (a, cb []*mat.Dense) {
	r := cfg.Rank
	opts := rsvd.Options{Oversample: cfg.Oversample, PowerIters: cfg.PowerIters}
	sketch := opts.SketchWidth(r)
	threshold := cfg.ShardRowsThreshold()

	// Work units: a whole slice (shard == -1) or one row shard of a tall
	// slice. Sizes are row counts — what the sketch cost is proportional to.
	type unit struct{ k, shard int }
	var units []unit
	var sizes []int
	nShards := make([]int, len(slices))
	bounds := make([][]int, len(slices))
	shardGens := make([][]*rng.RNG, len(slices))
	mergeGens := make([]*rng.RNG, len(slices))
	sketches := make([][]rsvd.ShardSketch, len(slices))
	for k, s := range slices {
		m := rsvd.NumShards(s.Rows, s.Cols, threshold, sketch)
		nShards[k] = m
		if m <= 1 {
			units = append(units, unit{k, -1})
			sizes = append(sizes, s.Rows)
			continue
		}
		bounds[k] = rsvd.ShardBounds(s.Rows, m)
		shardGens[k], mergeGens[k] = rsvd.ShardGens(gens[k], m)
		sketches[k] = make([]rsvd.ShardSketch, m)
		for i := 0; i < m; i++ {
			units = append(units, unit{k, i})
			sizes = append(sizes, bounds[k][i+1]-bounds[k][i])
		}
	}

	a = make([]*mat.Dense, len(slices))
	cb = make([]*mat.Dense, len(slices)) // C_k B_k, J × R
	// Units are claimed largest first, Algorithm 4's greedy rule applied to
	// the run times as they happen. Each lane holds one Jacobi workspace: a
	// lane runs one unit at a time, so its workspace is never shared
	// concurrently and the small SVD inside every whole-slice Decompose
	// draws nothing from the lapack pool.
	wss := make([]lapack.Workspace, pool.Workers())
	claimBySize(pool, sizes, func(lane, u int) {
		if ctx.Err() != nil {
			return
		}
		un := units[u]
		s := slices[un.k]
		if un.shard < 0 {
			// The slice is the unit of parallelism; kernels inside the
			// decomposition run serially (opts.Runner is nil).
			uopts := opts
			uopts.Workspace = &wss[lane]
			d := rsvd.Decompose(gens[un.k], s, r, uopts)
			a[un.k] = d.U
			cb[un.k] = d.V.ScaleColumns(d.S)
			return
		}
		lo, hi := bounds[un.k][un.shard], bounds[un.k][un.shard+1]
		sketches[un.k][un.shard] = rsvd.SketchShard(shardGens[un.k][un.shard], s.RowView(lo, hi), r, opts)
	})

	// Merge the shard bases slice by slice. Each merge is one small SVD of
	// the stacked (m·(R+s))×J blocks plus the O(I_k·(R+s)·R) materialization
	// of A_k, whose kernels run on the pool. The merge loop is serial, so a
	// single reused workspace covers every merge SVD.
	mopts := opts
	mopts.Runner = pool
	mopts.Workspace = new(lapack.Workspace)
	for k, m := range nShards {
		if m <= 1 || ctx.Err() != nil {
			continue
		}
		d := rsvd.MergeShards(mergeGens[k], sketches[k], r, mopts)
		a[k] = d.U
		cb[k] = d.V.ScaleColumns(d.S)
	}
	return a, cb
}

// DPar2Ctx runs the full method of the paper (Algorithm 3): two-stage
// compression, then ALS iterations that touch only the compressed factors.
//
// Per iteration (Lemmas 1-3) the cost is O(JR² + KR³) — independent of the
// slice heights I_k — versus O(Σ_k I_k J R) for PARAFAC2-ALS.
//
// The context is checked between compression phases, before every ALS
// iteration, and between the parallel phases inside one iteration. On
// cancellation the unwrapped ctx.Err() is returned promptly and any
// transient pool is released.
func DPar2Ctx(ctx context.Context, t *tensor.Irregular, cfg Config) (*Result, error) {
	if err := cfg.validate(t); err != nil {
		return nil, err
	}
	pool, done := cfg.runtimePool()
	defer done()
	cfg.Pool = pool // one pool for both phases and the fitness pass

	start := time.Now()
	comp, err := compressWith(ctx, t, cfg, pool)
	if err != nil {
		return nil, err
	}
	preprocess := time.Since(start)

	res, err := dpar2Iterate(ctx, comp, cfg, nil)
	if err != nil {
		return nil, err
	}
	res.PreprocessTime = preprocess
	res.TotalTime = time.Since(start)
	res.Fitness = FitnessWith(t, res, pool)
	res.FitnessKind = FitnessTrue
	return res, nil
}

// DPar2FromCompressedCtx runs the iteration phase of Algorithm 3 on an
// already compressed tensor. Exposed separately so callers can amortize
// compression across runs (e.g. rank sweeps over the same data) and so
// benchmarks can time the phases independently.
//
// Result.Fitness is a compressed-space estimate (FitnessKind ==
// FitnessCompressed): 1 − e/‖X̃‖², where e is the final convergence measure
// and X̃ the compressed approximation the iteration sees (the input tensor
// itself is not available here). Because A_k, D, Z_k, and P_k all have
// orthonormal columns this is the exact fitness of the factorization against
// X̃; it differs from the fitness against the original tensor only by the
// (one-time) compression error. Use Fitness for the latter when the tensor
// is at hand.
//
// cfg.Rank must equal comp.Rank; a different rank is an error before any
// work. All per-slice working state is allocated once up front and every
// kernel in the loop writes into preallocated or arena scratch, so the
// steady-state iteration performs (nearly) zero heap allocations. The
// context is checked at the same points as in DPar2Ctx's iteration phase.
func DPar2FromCompressedCtx(ctx context.Context, comp *Compressed, cfg Config) (*Result, error) {
	if cfg.Rank != comp.Rank {
		return nil, fmt.Errorf("parafac2: rank %d does not match the compressed tensor's rank %d", cfg.Rank, comp.Rank)
	}
	return dpar2Iterate(ctx, comp, cfg, nil)
}

// warmStart seeds the iteration phase with factors from a previous run over
// (a prefix of) the same data — the streaming refresh path. H, V, and S live
// in basis-independent spaces (H is the R×R common matrix, V is J×R, S_k are
// the diagonal weights), so they survive the basis rotation AppendCtx applies
// to the compressed representation. S rows beyond len(s) (newly absorbed
// slices) keep the cold-start all-ones initialization.
type warmStart struct {
	h *mat.Dense
	v *mat.Dense
	s [][]float64
}

// compatible reports whether the warm factors match the compressed shape.
func (w *warmStart) compatible(comp *Compressed) bool {
	r := comp.Rank
	return w != nil && w.h != nil && w.v != nil &&
		w.h.Rows == r && w.h.Cols == r &&
		w.v.Rows == comp.J && w.v.Cols == r
}

// dpar2Iterate is the iteration phase of Algorithm 3, optionally warm-started.
func dpar2Iterate(ctx context.Context, comp *Compressed, cfg Config, warm *warmStart) (*Result, error) {
	pool, done := cfg.runtimePool()
	defer done()
	arena := compute.Shared()
	g := rng.New(cfg.Seed + 0x9e37)
	r := cfg.Rank
	k := len(comp.A)

	h, v, s := initCommon(g, comp.J, k, r)
	if warm.compatible(comp) {
		h = warm.h.Clone()
		v = warm.v.Clone()
		for kk := range s {
			if kk < len(warm.s) && len(warm.s[kk]) == r {
				copy(s[kk], warm.s[kk])
			}
		}
	}

	// Per-slice R×R working state (Z_k, P_k, and T_k = P_k Z_kᵀ F⁽ᵏ⁾, the
	// factor of Y_k), allocated once on slab backings (allocation count
	// independent of K — the streaming absorb path runs this per batch) and
	// overwritten in place each iteration. Z_k and P_k become the result's
	// factored Q. Row kk of svals receives the singular values of slice
	// kk's Q-update SVD (needed only as scratch).
	z := newRRBlocks(k, r)
	p := newRRBlocks(k, r)
	tf := newRRBlocks(k, r)
	svals := mat.New(k, r)
	svalRows := make([][]float64, k)
	for kk := range svalRows {
		svalRows[kk] = svals.Row(kk)
	}
	// The K per-slice Q-update SVDs run as one fused batch; its slab and
	// masks live in bws for the whole iteration loop (and, through the
	// absorb refresh, for the life of a streaming batch) so the batched
	// kernel never touches the package workspace pool. pj receives the
	// batch's right factors once the inputs are pre-rotated (see the loop).
	svdIn := newRRBlocks(k, r)
	pj := newRRBlocks(k, r)
	var bws lapack.BatchWorkspace

	dtv := mat.New(r, r)                   // DᵀV
	ga, gb := mat.New(r, r), mat.New(r, r) // Gram scratch
	g1, g2, g3 := mat.New(r, r), mat.New(comp.J, r), mat.New(k, r)

	res := &Result{S: s, PreprocessedBytes: comp.SizeBytes()}

	last, err := iterate(ctx, cfg, res, func(it int) (float64, error) {
		// DᵀV is shared by the Q_k update and Lemma 1.
		comp.D.TMulInto(dtv, v, pool)

		// --- Update Q_k in factored form (Section III-D) -------------
		// SVD of M_k = F⁽ᵏ⁾ E DᵀV S_k Hᵀ (R×R) gives Z_k Σ_k P_kᵀ;
		// Q_k = A_k Z_k P_kᵀ is never materialized. Three phases: build
		// every SVD input, factor them all in one fused Jacobi batch
		// (parallel across slices only, so results match K sequential
		// FactorInto calls bit for bit), then form the T_k caches.
		//
		// From the second iteration on, each input is pre-rotated by the
		// previous iteration's P_k. M_k barely moves between iterations,
		// so M_k P_kᵖʳᵉᵛ ≈ Z_k Σ_k already has nearly orthogonal columns
		// and one-sided Jacobi converges in fewer sweeps. Its right factor
		// P_kʲᵃᶜ lands in pj, and M_k = Z_k Σ_k (P_kᵖʳᵉᵛ P_kʲᵃᶜ)ᵀ gives
		// P_k ← P_kᵖʳᵉᵛ P_kʲᵃᶜ. The first iteration of every call (a
		// fresh run, a stream create, each absorb refresh, a resume)
		// stays cold, so a restored stream computes exactly what an
		// uninterrupted one does without P_k being persisted. Each
		// slice's arithmetic stays serial, so the factors stay
		// bit-identical across thread counts.
		rotated := it > 0
		pool.ParallelFor(k, func(kk int) {
			t1 := arena.GetUninit(r, r)
			t2 := arena.GetUninit(r, r)
			comp.F[kk].ScaleColumnsInto(t1, comp.E) // F⁽ᵏ⁾E
			t1.MulInto(t2, dtv, nil)                // · DᵀV
			t2.ScaleColumnsInto(t2, s[kk])          // · S_k
			if rotated {
				t2.MulTInto(t1, h, nil)           // · Hᵀ
				t1.MulInto(svdIn[kk], p[kk], nil) // · P_kᵖʳᵉᵛ
			} else {
				t2.MulTInto(svdIn[kk], h, nil) // · Hᵀ
			}
			arena.Put(t1, t2)
		})
		right := p
		if rotated {
			right = pj
		}
		lapack.FactorBatch(svdIn, z, svalRows, right, pool, &bws)
		pool.ParallelFor(k, func(kk int) {
			t2 := arena.GetUninit(r, r)
			if rotated {
				p[kk].MulInto(t2, pj[kk], nil) // P_kᵖʳᵉᵛ P_kʲᵃᶜ
				p[kk].CopyFrom(t2)
			}
			// Y_k = P_k Z_kᵀ F⁽ᵏ⁾ E Dᵀ; cache T_k = P_k Z_kᵀ F⁽ᵏ⁾.
			p[kk].MulTInto(t2, z[kk], nil)
			t2.MulInto(tf[kk], comp.F[kk], nil)
			arena.Put(t2)
		})
		if err := ctx.Err(); err != nil {
			return 0, err
		}

		// --- One CP-ALS sweep via Lemmas 1-3 --------------------------
		w := wMatrix(s)

		// Lemma 1: G⁽¹⁾(:,r) = (Σ_k W(k,r) T_k) E DᵀV(:,r).
		lemma1Into(g1, tf, w, comp.E, dtv, pool, arena)
		w.GramInto(ga)
		v.GramInto(gb)
		h = solveUpdate(g1, ga.HadamardInPlace(gb), cfg)

		// Lemma 2: G⁽²⁾(:,r) = D E Σ_k W(k,r) T_kᵀ H(:,r).
		lemma2Into(g2, tf, w, comp.D, comp.E, h, pool, arena)
		w.GramInto(ga)
		h.GramInto(gb)
		v = solveUpdate(g2, ga.HadamardInPlace(gb), cfg)

		// Lemma 3: G⁽³⁾(k,r) = H(:,r)ᵀ T_k E DᵀV(:,r), recomputed with
		// the fresh V.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		comp.D.TMulInto(dtv, v, pool)
		lemma3Into(g3, tf, comp.E, dtv, h, pool, arena)
		v.GramInto(ga)
		h.GramInto(gb)
		w = solveUpdate(g3, ga.HadamardInPlace(gb), cfg)
		projectW(w, cfg)
		unpackW(w, s)

		// --- Compressed convergence check (Section III-E) -------------
		// e = Σ_k ‖P_k Z_kᵀ F⁽ᵏ⁾ E Dᵀ − H S_k Vᵀ‖_F², computed on R×R
		// Gram matrices only.
		return compressedError2(tf, comp.E, dtv, v, h, s, pool, arena), nil
	})
	if err != nil {
		return nil, err
	}

	// Q stays in factored form: Q_k = A_k Z_k P_kᵀ, with the A_k shared
	// with the compressed representation (immutable once built —
	// AppendCtx only appends to the A slice). The Result's accessors
	// materialize dense slices on demand (line 25's U_k = Q_k H included),
	// so nothing here pays the K-wide O(Σ_k I_k·R) pass the old eager loop
	// did — the property that keeps streaming absorbs independent of the
	// history.
	res.H, res.V = h, v
	res.SetFactoredQ(append([]*mat.Dense(nil), comp.A...), z, p)
	// Compressed-space fitness: last is the final convergence measure
	// Σ_k ‖Q_kᵀX̃_k − H S_k Vᵀ‖², which equals the full compressed error
	// Σ_k ‖X̃_k − Q_k H S_k Vᵀ‖² because Z_k and P_k are square orthogonal
	// (so Q_kᵀ loses nothing of X̃_k). ‖X̃‖² = Σ_k ‖F⁽ᵏ⁾E‖² by the
	// orthonormality of A_k and D. Callers with the original tensor at hand
	// (DPar2Ctx) overwrite this with the true fitness.
	if res.Iters > 0 {
		if n := comp.Norm2(); n > 0 {
			res.Fitness = 1 - last/n
		} else {
			res.Fitness = 1
		}
		res.FitnessKind = FitnessCompressed
	}
	return res, nil
}

// Norm2 returns ‖X̃‖_F² = Σ_k ‖F⁽ᵏ⁾E‖_F² of the compressed approximation
// (exact because A_k and D have orthonormal columns).
func (c *Compressed) Norm2() float64 {
	var total float64
	for _, f := range c.F {
		for i := 0; i < f.Rows; i++ {
			row := f.Row(i)
			for j, v := range row {
				fe := v * c.E[j]
				total += fe * fe
			}
		}
	}
	return total
}

// lemma1Into computes G⁽¹⁾ = Y(1)(W ⊙ V) ∈ R^{R×R} without reconstructing
// Y(1): column r is (Σ_k W(k,r) T_k) · (E DᵀV(:,r)). Cost O(KR³ + R³).
func lemma1Into(out *mat.Dense, tf []*mat.Dense, w *mat.Dense, e []float64, dtv *mat.Dense, pool *compute.Pool, arena *compute.Arena) {
	r := dtv.Cols
	pool.ParallelFor(r, func(col int) {
		// acc = Σ_k W(k,col) T_k
		acc := arena.Get(r, r)
		for k, t := range tf {
			acc.AddScaledInPlace(w.At(k, col), t)
		}
		// rhs = E DᵀV(:,col)
		rhs := arena.GetUninit(1, r)
		for i := 0; i < r; i++ {
			rhs.Data[i] = e[i] * dtv.At(i, col)
		}
		tmp := arena.GetUninit(1, r)
		acc.MulVecInto(tmp.Data, rhs.Data)
		out.SetCol(col, tmp.Data)
		arena.Put(acc, rhs, tmp)
	})
}

// lemma2Into computes G⁽²⁾ = Y(2)(W ⊙ H) ∈ R^{J×R}: column r is
// D E (Σ_k W(k,r) T_kᵀ H(:,r)). Note F⁽ᵏ⁾ᵀ Z_k P_kᵀ = T_kᵀ. Cost O(JR² + KR³).
func lemma2Into(out *mat.Dense, tf []*mat.Dense, w, d *mat.Dense, e []float64, h *mat.Dense, pool *compute.Pool, arena *compute.Arena) {
	r := h.Cols
	pool.ParallelFor(r, func(col int) {
		hcol := arena.GetUninit(1, r)
		for i := 0; i < r; i++ {
			hcol.Data[i] = h.At(i, col)
		}
		acc := arena.Get(1, r)
		tv := arena.GetUninit(1, r)
		for k, t := range tf {
			wk := w.At(k, col)
			if wk == 0 {
				continue
			}
			// acc += wk * T_kᵀ hcol
			t.TMulVecInto(tv.Data, hcol.Data)
			for i, tvv := range tv.Data {
				acc.Data[i] += wk * tvv
			}
		}
		for i := range acc.Data {
			acc.Data[i] *= e[i]
		}
		dcol := arena.GetUninit(1, d.Rows)
		d.MulVecInto(dcol.Data, acc.Data)
		out.SetCol(col, dcol.Data)
		arena.Put(hcol, acc, tv, dcol)
	})
}

// lemma3Into computes G⁽³⁾ = Y(3)(V ⊙ H) ∈ R^{K×R}: entry (k,r) is
// vec(T_k)ᵀ (E DᵀV(:,r) ⊗ H(:,r)) = H(:,r)ᵀ T_k (E DᵀV(:,r)). Cost O(KR³).
func lemma3Into(out *mat.Dense, tf []*mat.Dense, e []float64, dtv, h *mat.Dense, pool *compute.Pool, arena *compute.Arena) {
	r := h.Cols
	// edtv(:,r) = E DᵀV(:,r)
	edtv := arena.GetUninit(r, r)
	dtv.ScaleRowsInto(edtv, e)
	pool.ParallelFor(len(tf), func(kk int) {
		// M = T_k · edtv (R×R); out(k,r) = H(:,r)ᵀ M(:,r).
		m := arena.GetUninit(r, r)
		tf[kk].MulInto(m, edtv, nil)
		row := out.Row(kk)
		for col := 0; col < r; col++ {
			var sum float64
			for i := 0; i < r; i++ {
				sum += h.At(i, col) * m.At(i, col)
			}
			row[col] = sum
		}
		arena.Put(m)
	})
	arena.Put(edtv)
}

// compressedError2 evaluates Σ_k ‖T_k E Dᵀ − H S_k Vᵀ‖_F² using only R×R
// Gram matrices: with G_k = T_k E and B_k = H S_k,
//
//	‖G_k Dᵀ‖² = ‖G_k‖²                 (DᵀD = I)
//	‖B_k Vᵀ‖² = ⟨B_k (VᵀV), B_k⟩
//	⟨G_k Dᵀ, B_k Vᵀ⟩ = ⟨G_k (DᵀV)ᵀ… = ⟨G_k, B_k (VᵀD)⟩
//
// which lowers the paper's O(JKR²) check to O(JR² + KR³). The per-slice
// terms are computed across pool and summed in slice order, so the value
// does not depend on the pool width.
func compressedError2(tf []*mat.Dense, e []float64, dtv, v, h *mat.Dense, s [][]float64, pool *compute.Pool, arena *compute.Arena) float64 {
	r := v.Cols
	vtv := arena.GetUninit(r, r)
	v.GramInto(vtv) // VᵀV, R×R
	vtd := arena.GetUninit(r, r)
	dtv.TInto(vtd) // VᵀD, R×R
	terms := make([]float64, len(tf))
	pool.ParallelRanges(len(tf), func(lo, hi int) {
		gk := arena.GetUninit(r, r)
		bk := arena.GetUninit(r, r)
		bv := arena.GetUninit(r, r)
		bvd := arena.GetUninit(r, r)
		for k := lo; k < hi; k++ {
			tf[k].ScaleColumnsInto(gk, e) // T_k E
			h.ScaleColumnsInto(bk, s[k])  // H S_k
			normG := gk.FrobNorm2()
			bk.MulInto(bv, vtv, nil)
			bk.MulInto(bvd, vtd, nil)
			var normB, cross float64
			for i := range gk.Data {
				normB += bv.Data[i] * bk.Data[i]
				cross += gk.Data[i] * bvd.Data[i]
			}
			terms[k] = normG + normB - 2*cross
		}
		arena.Put(gk, bk, bv, bvd)
	})
	arena.Put(vtv, vtd)
	var total float64
	for _, term := range terms {
		total += term
	}
	if total < 0 {
		total = 0 // guard tiny negative round-off
	}
	return total
}

// CompressedErrorDirect2 materializes the R×J matrices and computes the same
// quantity directly — the paper's O(JKR²) formulation. Kept for tests (it
// must agree with compressedError2) and for the convergence ablation.
func CompressedErrorDirect2(comp *Compressed, tf []*mat.Dense, v, h *mat.Dense, s [][]float64) float64 {
	var total float64
	for k, t := range tf {
		lhs := t.ScaleColumns(comp.E).MulT(comp.D) // R×J
		rhs := h.ScaleColumns(s[k]).MulT(v)        // R×J
		d := lhs.FrobDist(rhs)
		total += d * d
	}
	return total
}
