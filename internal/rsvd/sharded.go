package rsvd

import (
	"repro/internal/compute"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/rng"
)

// Row-sharded randomized SVD (the stage-1 path for very tall slices).
//
// A Halko-style sketch composes hierarchically: split A ∈ R^{I×J} into row
// shards A_1..A_m, sketch each shard independently (A_i ≈ Q_i B_i with Q_i
// column orthonormal and B_i = Q_iᵀ A_i the (R+s)×J projection), and observe
//
//	A ≈ blkdiag(Q_1, …, Q_m) · B,   B = vstack(B_1, …, B_m),
//
// where blkdiag(Q_i) has orthonormal columns because every Q_i does. A second
// small randomized SVD of the stacked (m·(R+s))×J matrix B ≈ Ũ Σ Vᵀ then
// yields A ≈ (blkdiag(Q_i) Ũ) Σ Vᵀ — the same rank-R contract Decompose
// returns, with U column orthonormal, at peak scratch O(shardRows·(R+s)) per
// in-flight shard instead of O(I·(R+s)) for the whole matrix. For an exactly
// rank-R matrix every shard sketch captures its (≤R-dimensional) row space,
// so the hierarchical result is exact up to round-off, like the flat sketch.
//
// The pieces below are composed in one place, parafac2's stage-1 sketches:
// NumShards and ShardBounds plan the shards, ShardGens draws their
// generators, each shard is a SketchShard work unit on the pool, and
// MergeShards combines a slice's sketches. rsvd's tests call each directly.

// NumShards returns how many row shards an rows-by-cols matrix is split into
// under threshold shardRows: 1 when sharding is disabled (shardRows <= 0),
// the matrix is short enough, or the sketch would not compress the columns
// (sketch >= cols — the degenerate regime Decompose serves with a
// deterministic truncated SVD, which must stay the single path for it);
// otherwise ceil(rows/shardRows) clamped so every shard keeps at least
// sketch rows (a shard shorter than the sketch width would not compress
// anything either).
func NumShards(rows, cols, shardRows, sketch int) int {
	if shardRows <= 0 || rows <= shardRows || sketch >= cols {
		return 1
	}
	m := (rows + shardRows - 1) / shardRows
	if sketch > 0 {
		if mx := rows / sketch; m > mx {
			m = mx
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// ShardBounds returns m+1 row offsets splitting rows into m contiguous
// near-equal shards (sizes differ by at most one row).
func ShardBounds(rows, m int) []int {
	b := make([]int, m+1)
	base, rem := rows/m, rows%m
	off := 0
	for i := 0; i < m; i++ {
		b[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	b[m] = rows
	return b
}

// ShardGens derives the deterministic generators of a sharded decomposition
// from g: one Split child per shard (in shard order), then one more for the
// merge. Pre-splitting is what makes sharded results bit-reproducible no
// matter which worker ends up sketching which shard.
func ShardGens(g *rng.RNG, m int) (shards []*rng.RNG, merge *rng.RNG) {
	shards = make([]*rng.RNG, m)
	for i := range shards {
		shards[i] = g.Split()
	}
	return shards, g.Split()
}

// ShardSketch is the stage-1 sketch of one row shard: Q (shardRows×w, column
// orthonormal) spans the shard's sketched row space and B = Qᵀ·shard (w×J) is
// the projection, with w = min(r+Oversample, shard rows).
type ShardSketch struct {
	Q *mat.Dense
	B *mat.Dense
}

// SketchShard computes the randomized range sketch of one row shard:
// Y = (A_i A_iᵀ)^q A_i Ω, Q = orth(Y), B = Qᵀ A_i. The shard should have at
// least r+Oversample rows and columns (NumShards only plans shards where the
// sketch compresses both ways); smaller shards clamp the sketch width to
// min(rows, cols) so the QR steps stay well-posed. The large shard-sized
// scratch (Ω, Y, Z) cycles through the shared workspace arena, so
// steady-state shard traffic stays bucket-recyclable instead of allocating
// fresh I_k-sized buffers per call.
func SketchShard(g *rng.RNG, shard *mat.Dense, r int, opts Options) ShardSketch {
	opts = opts.normalize()
	if r <= 0 {
		panic("rsvd: non-positive rank")
	}
	w := r + opts.Oversample
	if w > shard.Rows {
		w = shard.Rows
	}
	if w > shard.Cols {
		w = shard.Cols
	}
	rn := opts.Runner
	ar := compute.Shared()

	omega := ar.GetUninit(shard.Cols, w)
	g.NormSlice(omega.Data)
	y := ar.GetUninit(shard.Rows, w)
	shard.MulInto(y, omega, rn)
	for q := 0; q < opts.PowerIters; q++ {
		yq := lapack.QRFactor(y).Q
		z := ar.GetUninit(shard.Cols, w)
		shard.TMulInto(z, yq, rn)
		zq := lapack.QRFactor(z).Q
		shard.MulInto(y, zq, rn)
		ar.Put(z)
	}
	q := lapack.QRFactor(y).Q
	b := q.TMulInto(mat.New(w, shard.Cols), shard, rn)
	ar.Put(omega, y)
	return ShardSketch{Q: q, B: b}
}

// MergeShards combines the sketches of vertically adjacent row shards into a
// rank-r SVD of the stacked matrix: a second small randomized SVD of
// B = vstack(B_i) gives B ≈ Ũ Σ Vᵀ, and U = blkdiag(Q_i) Ũ is materialized
// shard block by shard block (U rows [lo_i, hi_i) = Q_i · Ũ's i-th row
// block). U inherits column orthonormality from the Q_i and Ũ. The sketches
// must be in shard (row) order and share a column count.
func MergeShards(g *rng.RNG, sketches []ShardSketch, r int, opts Options) lapack.SVD {
	if len(sketches) == 0 {
		panic("rsvd: MergeShards of nothing")
	}
	opts = opts.normalize()
	bs := make([]*mat.Dense, len(sketches))
	rows := 0
	for i, s := range sketches {
		bs[i] = s.B
		rows += s.Q.Rows
	}
	stacked := mat.VConcat(bs...)
	inner := Decompose(g, stacked, r, opts)

	u := mat.New(rows, r)
	rowOff, wOff := 0, 0
	for _, s := range sketches {
		ub := inner.U.RowView(wOff, wOff+s.B.Rows) // Ũ block for this shard (no copy)
		s.Q.MulInto(u.RowView(rowOff, rowOff+s.Q.Rows), ub, opts.Runner)
		rowOff += s.Q.Rows
		wOff += s.B.Rows
	}
	return lapack.SVD{U: u, S: inner.S, V: inner.V}
}
