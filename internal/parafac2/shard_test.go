package parafac2

import (
	"context"
	"math"
	"testing"

	"repro/internal/compute"
	"repro/internal/datagen"
	"repro/internal/rng"
	"repro/internal/rsvd"
	"repro/internal/tensor"
)

// shardTestConfig is the shared setup of the equivalence tests. On exactly
// low-rank (noise-free) tensors every sketch — flat or sharded, any shard
// count — captures the slices exactly, so the compressed tensor X̃ equals X
// in every run and the ALS trajectory is identical up to round-off; fitness
// then agrees to ~1e-14 between shard counts at ANY iteration budget.
func shardTestConfig(rank int) Config {
	cfg := DefaultConfig()
	cfg.Rank = rank
	cfg.MaxIters = 60
	cfg.Tol = 1e-14
	cfg.Threads = 3
	return cfg
}

func TestShardNoShardFitnessEquivalence(t *testing.T) {
	g := rng.New(51)
	// Tallest slice 1600 rows; ShardRows settings force 1, 2, and 7 shards
	// of it (rsvd.NumShards(1600, 800, 13) = 2, NumShards(1600, 230, 13) = 7).
	ten := datagen.LowRank(g, []int{700, 900, 1600}, 40, 5, 0)
	base := shardTestConfig(5)

	var fit0 float64
	for i, shardRows := range []int{-1, 800, 230} {
		cfg := base
		cfg.ShardRows = shardRows
		res, err := DPar2Ctx(context.Background(), ten, cfg)
		if err != nil {
			t.Fatalf("ShardRows %d: %v", shardRows, err)
		}
		if i == 0 {
			fit0 = res.Fitness
			continue
		}
		if d := math.Abs(res.Fitness - fit0); d > 1e-9 {
			t.Errorf("ShardRows %d: fitness %g differs from unsharded %g by %g (> 1e-9)",
				shardRows, res.Fitness, fit0, d)
		}
	}
}

func TestShardedCompressKeepsAkOrthonormal(t *testing.T) {
	g := rng.New(52)
	ten := datagen.LowRank(g, []int{1600, 700, 350}, 40, 5, 0.01)
	cfg := shardTestConfig(5)
	cfg.ShardRows = 230 // 7 shards for the tall slice, 3 or fewer for the rest
	comp, err := CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range comp.A {
		if a.Rows != ten.Slices[k].Rows || a.Cols != 5 {
			t.Fatalf("A_%d is %dx%d, want %dx5", k, a.Rows, a.Cols, ten.Slices[k].Rows)
		}
		if !a.IsOrthonormalCols(1e-8) {
			t.Fatalf("A_%d lost column orthonormality under sharding", k)
		}
	}
	// The factored Q_k = A_k Z_k P_kᵀ inherit the property end to end.
	res, err := DPar2FromCompressedCtx(context.Background(), comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < res.K(); k++ {
		if !res.Qk(k).IsOrthonormalCols(1e-7) {
			t.Fatalf("Q_%d not orthonormal", k)
		}
	}
}

func TestShardEightTimesThreshold(t *testing.T) {
	// The acceptance scenario: an irregular tensor whose tallest slice is
	// 8x the ShardRows threshold.
	g := rng.New(53)
	ten := datagen.LowRank(g, []int{2400, 300, 500}, 32, 4, 0)
	base := shardTestConfig(4)

	un := base
	un.ShardRows = -1
	resU, err := DPar2Ctx(context.Background(), ten, un)
	if err != nil {
		t.Fatal(err)
	}
	sh := base
	sh.ShardRows = 300 // tallest slice = 8 shards
	resS, err := DPar2Ctx(context.Background(), ten, sh)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(resS.Fitness - resU.Fitness); d > 1e-9 {
		t.Errorf("8x-threshold slice: fitness %g vs %g differ by %g", resS.Fitness, resU.Fitness, d)
	}
	// The sharded compression is as tight as the flat one on exact data.
	comp, err := CompressCtx(context.Background(), ten, sh)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ten.Slices {
		approx := comp.SliceApprox(k)
		if rel := approx.FrobDist(ten.Slices[k]) / ten.Slices[k].FrobNorm(); rel > 1e-8 {
			t.Errorf("slice %d: sharded compression rel err %g", k, rel)
		}
	}
}

func TestShardedCompressBitReproducible(t *testing.T) {
	g := rng.New(54)
	ten := datagen.LowRank(g, []int{1100, 450}, 30, 4, 0.05)
	mk := func(threads int) *Compressed {
		cfg := shardTestConfig(4)
		cfg.Threads = threads
		cfg.ShardRows = 200
		c, err := CompressCtx(context.Background(), ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2, c4 := mk(1), mk(1), mk(4)
	for k := range c1.A {
		for i, v := range c1.A[k].Data {
			if c2.A[k].Data[i] != v {
				t.Fatalf("A_%d not reproducible across identical runs", k)
			}
			if c4.A[k].Data[i] != v {
				t.Fatalf("A_%d depends on pool width", k)
			}
		}
	}
}

func TestShardedAppendMatchesContract(t *testing.T) {
	// AppendCtx with a tall new slice routes through the sharded path and
	// keeps the compressed invariants.
	g := rng.New(55)
	full := datagen.LowRank(g, []int{300, 400, 1200}, 30, 4, 0)
	cfg := shardTestConfig(4)
	cfg.ShardRows = 200

	head := tensor.MustIrregular(full.Slices[:2])
	comp, err := CompressCtx(context.Background(), head, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ag := rng.New(99)
	if err := comp.AppendCtx(context.Background(), ag, full.Slices[2:], cfg); err != nil {
		t.Fatal(err)
	}
	if got := len(comp.A); got != 3 {
		t.Fatalf("appended compressed has %d slices, want 3", got)
	}
	if !comp.A[2].IsOrthonormalCols(1e-8) {
		t.Fatal("appended tall A_k lost orthonormality under sharding")
	}
	for k := range full.Slices {
		approx := comp.SliceApprox(k)
		if rel := approx.FrobDist(full.Slices[k]) / full.Slices[k].FrobNorm(); rel > 1e-7 {
			t.Errorf("slice %d after sharded append: rel err %g", k, rel)
		}
	}
}

func TestNarrowTallSliceDoesNotPanic(t *testing.T) {
	// Regression: J below the sketch width (rank 10 + oversample 8 > J=12)
	// with a slice over the ShardRows threshold used to panic inside the
	// shard sketch's power-iteration QR; it must route through the flat
	// degenerate path and match the unsharded run bit for bit.
	g := rng.New(56)
	ten := datagen.LowRank(g, []int{3000, 200, 150}, 12, 10, 0.01)
	base := shardTestConfig(10)
	base.MaxIters = 10

	sh := base
	sh.ShardRows = 1000
	resS, err := DPar2Ctx(context.Background(), ten, sh)
	if err != nil {
		t.Fatal(err)
	}
	un := base
	un.ShardRows = -1
	resU, err := DPar2Ctx(context.Background(), ten, un)
	if err != nil {
		t.Fatal(err)
	}
	if resS.Fitness != resU.Fitness {
		t.Fatalf("narrow-slice run diverged: %g vs %g", resS.Fitness, resU.Fitness)
	}
}

func TestStage1ScratchWithinArenaRange(t *testing.T) {
	// The point of sharding for memory: per-shard stage-1 scratch
	// (ShardRows x sketch-width buffers) must stay inside the arena's
	// recyclable bucket range, where the unsharded path's I_k-sized buffers
	// for very tall slices fall out of it.
	opts := rsvd.Options{Oversample: DefaultConfig().Oversample}
	sketch := opts.SketchWidth(DefaultConfig().Rank)
	if floats := DefaultShardRows * sketch; floats > compute.MaxRecycleFloats() {
		t.Fatalf("default shard scratch %d floats exceeds the largest arena bucket %d",
			floats, compute.MaxRecycleFloats())
	}
	// Generous headroom: even rank 256 with oversample 32 stays recyclable.
	if floats := DefaultShardRows * (256 + 32); floats > compute.MaxRecycleFloats() {
		t.Fatalf("high-rank shard scratch %d floats exceeds the largest arena bucket %d",
			floats, compute.MaxRecycleFloats())
	}
}
