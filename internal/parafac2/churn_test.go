package parafac2

import (
	"context"
	"testing"

	"repro/internal/lapack"
	"repro/internal/rng"
)

// TestNoSteadyStatePoolChurn pins the workspace plumbing end to end: the ALS
// iteration phase factors every per-slice R×R problem through FactorBatch's
// owned slab, and stage 1 threads per-bucket Jacobi workspaces through rsvd,
// so the only lapack pool draw left in a full DPar2 run is the single
// stage-2 SVD. lapack.PoolDraws counts every workspacePool fallback; a
// regression that reintroduces per-slice pool churn shows up here as a
// K-proportional delta, not as a benchmark wobble.
func TestNoSteadyStatePoolChurn(t *testing.T) {
	g := rng.New(91)
	ten := synthPARAFAC2(g, irregRows(g, 8, 30, 70), 14, 3, 0.05)
	cfg := smallConfig(3)
	cfg.MaxIters = 6
	cfg.Tol = 0

	before := lapack.PoolDraws()
	comp, err := CompressCtx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := lapack.PoolDraws() - before; d > 1 {
		t.Fatalf("CompressCtx drew %d workspaces from the lapack pool, want at most 1 (the stage-2 SVD)", d)
	}

	before = lapack.PoolDraws()
	if _, err := DPar2FromCompressedCtx(context.Background(), comp, cfg); err != nil {
		t.Fatal(err)
	}
	if d := lapack.PoolDraws() - before; d != 0 {
		t.Fatalf("ALS iterations drew %d workspaces from the lapack pool, want 0", d)
	}
}

// TestShardedCompressPoolChurn covers the sharded stage-1 path: shard
// sketches are SVD-free and every merge SVD reuses the single merge
// workspace, so the budget is the same one stage-2 draw.
func TestShardedCompressPoolChurn(t *testing.T) {
	g := rng.New(92)
	ten := synthPARAFAC2(g, []int{900, 40, 60, 50}, 20, 3, 0.05)
	cfg := smallConfig(3)
	cfg.ShardRows = 128 // tall slice fans out into shard units

	before := lapack.PoolDraws()
	if _, err := CompressCtx(context.Background(), ten, cfg); err != nil {
		t.Fatal(err)
	}
	if d := lapack.PoolDraws() - before; d > 1 {
		t.Fatalf("sharded CompressCtx drew %d pool workspaces, want at most 1", d)
	}
}
