package parafac2

import (
	"context"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Edge-case and failure-injection tests for the decomposers.

func TestSingleSliceTensor(t *testing.T) {
	// K=1 degenerates PARAFAC2 to a matrix factorization; everything must
	// still work.
	g := rng.New(1)
	ten := synthPARAFAC2(g, []int{40}, 12, 3, 0)
	for _, m := range []struct {
		name string
		run  func(context.Context, *tensor.Irregular, Config) (*Result, error)
	}{{"DPar2", DPar2Ctx}, {"ALS", ALSCtx}, {"RDALS", RDALSCtx}, {"SPARTan", SPARTanCtx}} {
		res, err := m.run(context.Background(), ten, smallConfig(3))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if res.Fitness < 0.99 {
			t.Fatalf("%s: fitness %v on single exact slice", m.name, res.Fitness)
		}
	}
}

func TestRankOne(t *testing.T) {
	g := rng.New(2)
	ten := synthPARAFAC2(g, []int{30, 40, 35}, 10, 1, 0)
	res, err := DPar2Ctx(context.Background(), ten, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.99 {
		t.Fatalf("rank-1 fitness %v", res.Fitness)
	}
	if res.V.Cols != 1 || res.H.Rows != 1 {
		t.Fatal("rank-1 factor shapes wrong")
	}
}

func TestRankEqualsJ(t *testing.T) {
	// R = J: compression cannot shrink the column space, but the method
	// must remain correct.
	g := rng.New(3)
	j := 6
	ten := synthPARAFAC2(g, []int{30, 40, 25}, j, 4, 0.05)
	cfg := smallConfig(j)
	cfg.MaxIters = 60
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.95 {
		t.Fatalf("R=J fitness %v", res.Fitness)
	}
}

func TestSliceExactlyRankRows(t *testing.T) {
	// The smallest legal slices: I_k = R.
	g := rng.New(4)
	r := 3
	ten := synthPARAFAC2(g, []int{r, r + 1, 20}, 8, r, 0)
	res, err := DPar2Ctx(context.Background(), ten, smallConfig(r))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < res.K(); k++ {
		if !res.Qk(k).IsOrthonormalCols(1e-7) {
			t.Fatalf("Q_%d lost orthonormality with minimal rows", k)
		}
	}
}

func TestConstantSlices(t *testing.T) {
	// Rank-deficient input: all-equal entries (rank 1 with identical
	// singular vectors). Methods must not NaN out.
	slices := []*mat.Dense{
		mat.NewFromFunc(20, 8, func(i, j int) float64 { return 2.5 }),
		mat.NewFromFunc(30, 8, func(i, j int) float64 { return 2.5 }),
	}
	ten := tensor.MustIrregular(slices)
	cfg := smallConfig(2)
	cfg.MaxIters = 10
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Fitness) {
		t.Fatal("fitness is NaN on constant data")
	}
	if res.Fitness < 0.99 {
		t.Fatalf("constant tensor should be perfectly fit, got %v", res.Fitness)
	}
}

func TestZeroSlicePresent(t *testing.T) {
	// One all-zero slice among normal ones: degenerate SVDs inside the
	// pipeline must be handled.
	g := rng.New(5)
	ten := synthPARAFAC2(g, []int{25, 30}, 10, 2, 0)
	zero := mat.New(15, 10)
	slices := append(append([]*mat.Dense{}, ten.Slices...), zero)
	mixed := tensor.MustIrregular(slices)
	cfg := smallConfig(2)
	cfg.MaxIters = 15
	res, err := DPar2Ctx(context.Background(), mixed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Fitness) || math.IsInf(res.Fitness, 0) {
		t.Fatalf("non-finite fitness %v with a zero slice", res.Fitness)
	}
}

func TestHugeValueScale(t *testing.T) {
	// Numerical robustness: entries around 1e8 must not break the Jacobi
	// SVD or the Gram-based convergence check.
	g := rng.New(6)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0)
	for _, s := range ten.Slices {
		s.ScaleInPlace(1e8)
	}
	res, err := DPar2Ctx(context.Background(), ten, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.99 {
		t.Fatalf("large-scale data fitness %v", res.Fitness)
	}
}

func TestTinyValueScale(t *testing.T) {
	g := rng.New(7)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0)
	for _, s := range ten.Slices {
		s.ScaleInPlace(1e-8)
	}
	res, err := DPar2Ctx(context.Background(), ten, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.99 {
		t.Fatalf("small-scale data fitness %v", res.Fitness)
	}
}

func TestManyTinySlices(t *testing.T) {
	// Large K with small I_k: the K R³ iteration term dominates; exercises
	// the per-slice bookkeeping paths.
	g := rng.New(8)
	rows := make([]int, 120)
	for i := range rows {
		rows[i] = 5 + g.Intn(10)
	}
	ten := synthPARAFAC2(g, rows, 12, 3, 0.01)
	cfg := smallConfig(3)
	cfg.MaxIters = 25
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.9 {
		t.Fatalf("many-slice fitness %v", res.Fitness)
	}
	if res.K() != 120 || len(res.S) != 120 {
		t.Fatal("per-slice outputs incomplete")
	}
}

func TestThreadsExceedSlices(t *testing.T) {
	g := rng.New(9)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0)
	cfg := smallConfig(2)
	cfg.Threads = 64
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.99 {
		t.Fatalf("fitness %v with threads >> K", res.Fitness)
	}
}

func TestZeroThreadsClampsToOne(t *testing.T) {
	g := rng.New(10)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0)
	cfg := smallConfig(2)
	cfg.Threads = 0
	if _, err := DPar2Ctx(context.Background(), ten, cfg); err != nil {
		t.Fatalf("Threads=0 should clamp, got %v", err)
	}
	cfg.Threads = -5
	if _, err := ALSCtx(context.Background(), ten, cfg); err != nil {
		t.Fatalf("negative Threads should clamp, got %v", err)
	}
}

func TestMaxIters1(t *testing.T) {
	g := rng.New(11)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0.1)
	cfg := smallConfig(2)
	cfg.MaxIters = 1
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 1 {
		t.Fatalf("ran %d iterations, want 1", res.Iters)
	}
}

func TestNonnegativeSConstraint(t *testing.T) {
	g := rng.New(30)
	ten := synthPARAFAC2(g, irregRows(g, 6, 30, 70), 15, 3, 0.1)
	cfg := smallConfig(3)
	cfg.NonnegativeS = true
	for _, m := range []struct {
		name string
		run  func(context.Context, *tensor.Irregular, Config) (*Result, error)
	}{{"DPar2", DPar2Ctx}, {"ALS", ALSCtx}} {
		res, err := m.run(context.Background(), ten, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for k, s := range res.S {
			for _, v := range s {
				if v < 0 {
					t.Fatalf("%s: negative weight in S_%d: %v", m.name, k, v)
				}
			}
		}
		if res.Fitness < 0.8 {
			t.Fatalf("%s: constrained fitness collapsed to %v", m.name, res.Fitness)
		}
	}
}

func TestRidgeStabilizes(t *testing.T) {
	g := rng.New(31)
	ten := synthPARAFAC2(g, irregRows(g, 5, 30, 60), 12, 3, 0.05)
	cfg := smallConfig(3)
	cfg.Ridge = 1e-8
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := smallConfig(3)
	base, err := DPar2Ctx(context.Background(), ten, plain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < base.Fitness-0.01 {
		t.Fatalf("tiny ridge cost too much fitness: %v vs %v", res.Fitness, base.Fitness)
	}
}

func TestProgressCallback(t *testing.T) {
	g := rng.New(32)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0.1)
	cfg := smallConfig(2)
	cfg.MaxIters = 20
	cfg.Tol = 0 // disable tol stopping; the callback drives termination
	var calls []int
	cfg.Progress = func(iter int, measure float64) bool {
		calls = append(calls, iter)
		if measure < 0 {
			t.Errorf("negative convergence measure %v", measure)
		}
		return iter < 5 // stop after 5 iterations
	}
	res, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 5 {
		t.Fatalf("ran %d iterations, want 5 (callback-stopped)", res.Iters)
	}
	for i, c := range calls {
		if c != i+1 {
			t.Fatalf("callback iteration sequence wrong: %v", calls)
		}
	}
	// ALS path honors the callback too.
	calls = nil
	if _, err := ALSCtx(context.Background(), ten, cfg); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 5 {
		t.Fatalf("ALS made %d callback calls, want 5", len(calls))
	}
}
