package rsvd

import (
	"testing"

	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/rng"
)

func TestNumShards(t *testing.T) {
	cases := []struct {
		rows, cols, shardRows, sketch, want int
	}{
		{1000, 64, 0, 18, 1},    // sharding disabled
		{1000, 64, -1, 18, 1},   // sharding disabled
		{1000, 64, 1000, 18, 1}, // at threshold: no shard
		{1001, 64, 1000, 18, 2},
		{8000, 64, 1000, 18, 8},
		{1600, 64, 230, 18, 7},
		{100, 64, 10, 18, 5},    // clamped: each shard keeps >= sketch rows
		{30, 64, 10, 18, 1},     // clamp all the way down to one shard
		{8000, 18, 1000, 18, 1}, // sketch >= cols: degenerate, stay flat
		{8000, 12, 1000, 18, 1}, // narrower still: stay flat
	}
	for _, c := range cases {
		if got := NumShards(c.rows, c.cols, c.shardRows, c.sketch); got != c.want {
			t.Errorf("NumShards(%d, %d, %d, %d) = %d, want %d", c.rows, c.cols, c.shardRows, c.sketch, got, c.want)
		}
	}
}

func TestShardBoundsCoverContiguously(t *testing.T) {
	for _, c := range [][2]int{{100, 3}, {1600, 7}, {10, 10}, {65537, 2}} {
		rows, m := c[0], c[1]
		b := ShardBounds(rows, m)
		if len(b) != m+1 || b[0] != 0 || b[m] != rows {
			t.Fatalf("ShardBounds(%d, %d) = %v", rows, m, b)
		}
		for i := 0; i < m; i++ {
			size := b[i+1] - b[i]
			if size < rows/m || size > rows/m+1 {
				t.Fatalf("ShardBounds(%d, %d): shard %d has %d rows", rows, m, i, size)
			}
		}
	}
}

func TestDecomposeShardedNoisyNearOptimal(t *testing.T) {
	// Four shards of a noisy rank-6 matrix, sketched and merged directly,
	// stay within 10% of the truncated SVD's error. Planning and the flat
	// fallback belong to the one composition, parafac2's stage-1 sketches,
	// whose shard tests hold its compression to the same bound.
	g := rng.New(32)
	a := lowRankPlusNoise(g, 1200, 70, 6, 0.01)
	opts := DefaultOptions()
	b := ShardBounds(a.Rows, 4)
	gens, merge := ShardGens(rng.New(9), 4)
	sk := make([]ShardSketch, 4)
	for i := range sk {
		sk[i] = SketchShard(gens[i], a.RowView(b[i], b[i+1]), 6, opts)
	}
	sh := MergeShards(merge, sk, 6, opts)
	if !sh.U.IsOrthonormalCols(1e-8) || !sh.V.IsOrthonormalCols(1e-8) {
		t.Fatal("merged factors not orthonormal")
	}
	errDet := lapack.Truncated(a, 6).Reconstruct().FrobDist(a)
	errSh := sh.Reconstruct().FrobDist(a)
	if errSh > errDet*1.1+1e-12 {
		t.Fatalf("sharded SVD error %g vs deterministic %g", errSh, errDet)
	}
}

func TestDecomposeShardedFallsBackWhenShort(t *testing.T) {
	// A matrix no taller than the threshold is planned as one shard, which
	// stage 1 sketches flat (parafac2's TestShardedCompressBitReproducible
	// holds those bits to the unsharded run's); one row more splits it.
	sketch := DefaultOptions().SketchWidth(4)
	if m := NumShards(300, 40, 300, sketch); m != 1 {
		t.Fatalf("at the threshold: planned %d shards, want 1", m)
	}
	if m := NumShards(301, 40, 300, sketch); m != 2 {
		t.Fatalf("one row over the threshold: planned %d shards, want 2", m)
	}
}

func TestSketchShardClampsNarrowShard(t *testing.T) {
	// A shard narrower than the sketch width (J=12 < r+Oversample=18) must
	// clamp the width to its column count instead of panicking in the
	// power-iteration QR. NumShards never plans such a shard (narrow slices
	// stay flat: TestNarrowTallSliceDoesNotPanic in parafac2), so this is
	// the direct call.
	g := rng.New(37)
	a := lowRankPlusNoise(g, 3000, 12, 4, 0.01)
	sk := SketchShard(rng.New(14), a.RowView(0, 1000), 10, DefaultOptions())
	if sk.B.Rows != 12 { // clamped to cols
		t.Fatalf("narrow shard sketch width %d, want 12", sk.B.Rows)
	}
	if !sk.Q.IsOrthonormalCols(1e-8) {
		t.Fatal("narrow shard Q not orthonormal")
	}
}

func TestSketchShardSpansRowSpace(t *testing.T) {
	g := rng.New(35)
	a := lowRankPlusNoise(g, 400, 50, 5, 0)
	sk := SketchShard(rng.New(11), a, 5, DefaultOptions())
	if !sk.Q.IsOrthonormalCols(1e-8) {
		t.Fatal("shard Q not orthonormal")
	}
	if sk.B.Rows != 13 || sk.B.Cols != 50 { // r + oversample = 13
		t.Fatalf("shard B is %dx%d", sk.B.Rows, sk.B.Cols)
	}
	// Q Qᵀ A must reproduce A for exactly low-rank input.
	proj := sk.Q.Mul(sk.B)
	if rel := proj.FrobDist(a) / a.FrobNorm(); rel > 1e-8 {
		t.Fatalf("shard sketch misses row space: rel err %g", rel)
	}
}

func TestDecomposeDegeneratePadsToRank(t *testing.T) {
	// min(I, J) < r: the deficient SVD must be zero-padded to exactly r
	// columns so callers can rely on r-column factors.
	g := rng.New(36)
	a := mat.Gaussian(g, 6, 4)
	d := Decompose(g, a, 5, DefaultOptions())
	if len(d.S) != 5 || d.U.Cols != 5 || d.V.Cols != 5 {
		t.Fatalf("padded shapes wrong: |S|=%d U %dx%d V %dx%d", len(d.S), d.U.Rows, d.U.Cols, d.V.Rows, d.V.Cols)
	}
	if d.S[4] != 0 {
		t.Fatalf("padded singular value = %g, want 0", d.S[4])
	}
	for i := 0; i < d.U.Rows; i++ {
		if d.U.At(i, 4) != 0 {
			t.Fatal("padded U column not zero")
		}
	}
	for i := 0; i < d.V.Rows; i++ {
		if d.V.At(i, 4) != 0 {
			t.Fatal("padded V column not zero")
		}
	}
	// Reconstruction is unchanged by the zero tail: still the best rank-4
	// approximation (here exact, since rank(a) <= 4).
	if rel := d.Reconstruct().FrobDist(a) / a.FrobNorm(); rel > 1e-8 {
		t.Fatalf("padded reconstruction off: rel err %g", rel)
	}
}
