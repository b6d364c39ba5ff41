package parafac2

import (
	"context"
	"fmt"

	"repro/internal/compute"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/rsvd"
	"repro/internal/tensor"
)

// AppendCtx extends a compressed tensor with newly arrived slices without
// recompressing the old ones — the streaming setting the paper names as
// future work (and SPADE addresses for sparse data).
//
// Derivation: the existing compression is M ≈ D E Fᵀ with M = ‖_k C_k B_k.
// When slices X_{K+1..K+n} arrive, each is sketched once (stage 1) giving
// new blocks N = ‖_new (C_k B_k) ∈ R^{J×nR}. The updated concatenation is
//
//	M' = [M ‖ N] ≈ [D E ‖ N] · blkdiag(Fᵀ, I)
//
// so a randomized SVD of the small matrix G = [D·E ‖ N] ∈ R^{J×(R+nR)},
// G ≈ D' E' Wᵀ, yields the updated basis D', E' and — splitting W into its
// first R rows W₁ and the rest W₂ — the updated right blocks
//
//	F'⁽ᵏ⁾ = F⁽ᵏ⁾ W₁   for old slices k ≤ K
//	F'⁽ᵏ⁾ = W₂⁽ᵏ⁾     for new slices.
//
// The cost is O(Σ_new I_k J R + J (n+1) R²): independent of the K slices
// already absorbed.
//
// The context is checked between the per-slice sketches and before the
// incremental stage-2 factorization. On cancellation the compressed
// representation AND the caller's generator are left unmodified and the
// unwrapped ctx.Err() is returned, so retrying the same batch reproduces an
// uninterrupted run bit for bit.
//
// All of AppendCtx's randomness (the per-slice stage-1 generators and the
// stage-2 sketch) is drawn from a single child generator derived from a
// clone of g; g itself advances — by exactly the one Split an uninterrupted
// run observes — only once the batch is past every cancellation point.
// Before this, a cancelled append had already consumed n stage-1 Splits
// (plus any stage-2 draws) from g, so a retried batch sketched with
// different randomness and a retried stream diverged from an uninterrupted
// one.
func (c *Compressed) AppendCtx(ctx context.Context, g *rng.RNG, newSlices []*mat.Dense, cfg Config) error {
	if len(newSlices) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	r := c.Rank
	if c.J < r {
		// A compressed tensor narrower than its rank cannot have been
		// produced by a validated decomposition; appending to it would
		// mis-shape every F block downstream.
		return fmt.Errorf("parafac2: compressed tensor has %d columns < rank %d", c.J, r)
	}
	for i, s := range newSlices {
		if s.Cols != c.J {
			return fmt.Errorf("parafac2: appended slice %d has %d columns, want %d", i, s.Cols, c.J)
		}
		if s.Rows < r {
			return fmt.Errorf("parafac2: appended slice %d has %d rows < rank %d", i, s.Rows, r)
		}
	}
	opts := rsvd.Options{Oversample: cfg.Oversample, PowerIters: cfg.PowerIters}
	pool, done := cfg.runtimePool()
	defer done()
	arena := compute.Shared()

	// Speculative RNG: parent is what g becomes on commit, child feeds
	// every draw below. Until the commit near the end of this function, g
	// is never touched.
	parent := g.Clone()
	child := parent.Split()

	// Stage 1 on the new slices only, load-balanced (over shards of tall
	// slices, whole slices otherwise) as in CompressCtx.
	n := len(newSlices)
	gens := make([]*rng.RNG, n)
	for i := range gens {
		gens[i] = child.Split()
	}
	newA, newCB := stage1Sketches(ctx, newSlices, gens, cfg, pool)
	if err := ctx.Err(); err != nil {
		return err
	}

	// Incremental stage 2: G = [D·E ‖ N], J × (R + nR), assembled in arena
	// scratch (the per-part ScaleColumns/HConcat copies used to be fresh
	// heap allocations every batch). One big factorization, so its kernels
	// run on the pool (as in CompressCtx).
	gmat := arena.GetUninit(c.J, (n+1)*r)
	for i := 0; i < c.J; i++ {
		row := gmat.Row(i)
		drow := c.D.Row(i)
		for j := 0; j < r; j++ {
			row[j] = drow[j] * c.E[j]
		}
		for b, cb := range newCB {
			copy(row[r+b*r:r+(b+1)*r], cb.Row(i))
		}
	}
	opts.Runner = pool
	d2 := rsvd.Decompose(child, gmat, r, opts)
	arena.Put(gmat)

	// Past every cancellation point: commit the parent advance, then
	// mutate the compressed representation.
	*g = *parent

	w1 := d2.V.RowBlock(0, r) // R × R: how the old basis rotates
	// Rewrite old F blocks in the new basis, in place through one recycled
	// scratch block — the rotation is O(K·R²) flops but O(1) allocations
	// (it used to allocate K fresh matrices per batch).
	tmp := arena.GetUninit(r, r)
	for _, f := range c.F {
		f.MulInto(tmp, w1, nil)
		f.CopyFrom(tmp)
	}
	arena.Put(tmp)
	// New F blocks come straight from W₂.
	for i := 0; i < n; i++ {
		c.F = append(c.F, d2.V.RowBlock(r+i*r, r+(i+1)*r))
	}
	c.A = append(c.A, newA...)
	c.D = d2.U
	c.E = d2.S
	return nil
}

// DefaultRefreshIters bounds the warm-started factor refresh per absorb: the
// previous factors are already (near-)converged for all but the newest
// slices, so a handful of iterations recovers convergence instead of the
// full MaxIters a cold start needs.
const DefaultRefreshIters = 8

// StreamingDPar2 maintains a PARAFAC2 decomposition over a growing irregular
// tensor: slices arrive in batches, each batch is absorbed with AppendCtx,
// and the factors are refreshed by warm-starting the (cheap) iteration phase
// on the compressed representation from the previous factors.
type StreamingDPar2 struct {
	cfg    Config
	g      *rng.RNG
	comp   *Compressed
	result *Result
	// absorbed counts the slices seen so far.
	absorbed int

	// RefreshIters bounds the ALS iterations of each warm-started absorb
	// refresh (the bootstrap always runs the full cfg.MaxIters). It
	// defaults to min(DefaultRefreshIters, cfg.MaxIters); set it between
	// batches to trade absorb latency against fitness recovery. Values
	// above cfg.MaxIters are clamped to cfg.MaxIters; values <= 0 reset
	// to the default.
	RefreshIters int
}

// NewStreamingDPar2Ctx initializes the stream with a first batch.
func NewStreamingDPar2Ctx(ctx context.Context, initial *tensor.Irregular, cfg Config) (*StreamingDPar2, error) {
	if err := cfg.validate(initial); err != nil {
		return nil, err
	}
	comp, err := CompressCtx(ctx, initial, cfg)
	if err != nil {
		return nil, err
	}
	s := &StreamingDPar2{
		cfg:          cfg,
		g:            rng.New(cfg.Seed + 0x5eed),
		comp:         comp,
		absorbed:     initial.K(),
		RefreshIters: DefaultRefreshIters,
	}
	res, err := dpar2Iterate(ctx, s.comp, cfg, nil)
	if err != nil {
		return nil, err
	}
	s.result = res
	return s, nil
}

// AbsorbCtx folds a batch of new slices into the stream and refreshes the
// factors. Only the new slices are touched at full resolution. The refresh
// warm-starts from the previous H, V, and S (which are basis-independent, so
// they survive the rotation AppendCtx applies to the compressed
// representation); new slices get the cold-start S_k initialization. The
// refresh runs at most RefreshIters iterations instead of the full
// cfg.MaxIters a cold start would need.
//
// Error semantics: an error from the append phase (wrapping nothing, e.g. a
// plain ctx.Err()) means the batch was NOT absorbed — the stream, including
// its RNG state, is unchanged, and retrying the same batch produces a stream
// bit-identical to one that was never interrupted (see AppendCtx). An error
// from the refresh phase is wrapped with "batch absorbed" context: the
// slices ARE part of the stream (K reflects them) but Result is stale; call
// Refresh to re-derive the factors. Re-absorbing the batch in that state
// would duplicate it.
//
// Cost: stage-1 sketches of the new slices, the R-sized stage-2 update, the
// O(K·R²) in-place F rotation, and RefreshIters compressed-space ALS
// iterations. No per-old-slice O(I_k) work happens anywhere on this path —
// the factors stay in lazy factored form (see Result) — so absorb latency
// and allocations are independent of the slices already absorbed.
func (s *StreamingDPar2) AbsorbCtx(ctx context.Context, newSlices []*mat.Dense) error {
	if len(newSlices) == 0 {
		// AppendCtx would no-op, but the refresh below would still burn
		// RefreshIters warm-start iterations; an empty batch must leave
		// Result untouched.
		return nil
	}
	if err := s.comp.AppendCtx(ctx, s.g, newSlices, s.cfg); err != nil {
		return err
	}
	s.absorbed += len(newSlices)
	if err := s.Refresh(ctx); err != nil {
		return fmt.Errorf("parafac2: batch absorbed but factor refresh incomplete (Result is stale; call Refresh, do not re-absorb): %w", err)
	}
	return nil
}

// Refresh re-derives the factors from the current compressed representation,
// warm-started from the previous result when one exists. Use it to recover
// after a cancelled AbsorbCtx refresh, or to run extra polish iterations
// between batches.
func (s *StreamingDPar2) Refresh(ctx context.Context) error {
	cfg := s.cfg
	var warm *warmStart
	if prev := s.result; prev != nil {
		warm = &warmStart{h: prev.H, v: prev.V, s: prev.S}
		cfg.MaxIters = s.refreshIters()
	}
	res, err := dpar2Iterate(ctx, s.comp, cfg, warm)
	if err != nil {
		return err
	}
	s.result = res
	return nil
}

// refreshIters resolves the per-absorb iteration bound.
func (s *StreamingDPar2) refreshIters() int {
	n := s.RefreshIters
	if n <= 0 {
		n = DefaultRefreshIters
	}
	if n > s.cfg.MaxIters {
		n = s.cfg.MaxIters
	}
	return n
}

// Clone forks the stream: the copy absorbs and refreshes independently of
// the original. The compressed A_k bases are shared (immutable once built);
// everything AppendCtx mutates in place (the F blocks, D, E, the RNG state, and
// the result pointer) is copied, so the fork costs O(K·R² + J·R) — cheap
// enough to branch a stream per what-if batch, and what lets BenchmarkAbsorb
// replay the same absorb at a fixed K.
func (s *StreamingDPar2) Clone() *StreamingDPar2 {
	var res *Result
	if s.result != nil {
		cp := *s.result
		res = &cp
	}
	return &StreamingDPar2{
		cfg:          s.cfg,
		g:            s.g.Clone(),
		comp:         s.comp.Clone(),
		result:       res,
		absorbed:     s.absorbed,
		RefreshIters: s.RefreshIters,
	}
}

// Result returns the current factorization (covering every absorbed slice).
func (s *StreamingDPar2) Result() *Result { return s.result }

// K returns the number of slices absorbed so far.
func (s *StreamingDPar2) K() int { return s.absorbed }

// Compressed exposes the maintained compressed representation.
func (s *StreamingDPar2) Compressed() *Compressed { return s.comp }
