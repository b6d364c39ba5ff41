package parafac2

import (
	"context"
	"sync"
	"testing"

	"repro/internal/compute"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestSharedPoolConcurrentDecompositions hammers one shared compute.Pool
// with concurrent DPar2 runs (run under -race in CI). Every run must produce
// exactly the result of an isolated run with the same config: the pool and
// the shared scratch arena may not leak state across decompositions.
func TestSharedPoolConcurrentDecompositions(t *testing.T) {
	g := rng.New(42)
	ten := synthPARAFAC2(g, irregRows(g, 8, 25, 60), 16, 4, 0.02)
	cfg := smallConfig(4)
	cfg.MaxIters = 6

	baseline, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pool := compute.NewPool(4)
	defer pool.Close()
	shared := cfg
	shared.Pool = pool

	const runs = 8
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = DPar2Ctx(context.Background(), ten, shared)
		}(i)
	}
	wg.Wait()

	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].Fitness != baseline.Fitness {
			t.Fatalf("run %d: fitness %v != baseline %v (shared pool leaked state)",
				i, results[i].Fitness, baseline.Fitness)
		}
		if !results[i].H.EqualApprox(baseline.H, 0) || !results[i].V.EqualApprox(baseline.V, 0) {
			t.Fatalf("run %d: factors differ from baseline", i)
		}
	}
}

// TestThreadsDoNotChangeResult: DPar2 partitions work so that no
// cross-worker reduction depends on the worker count — the decomposition
// must be bit-identical for any Threads setting (and for an external pool of
// any width).
func TestThreadsDoNotChangeResult(t *testing.T) {
	g := rng.New(7)
	ten := synthPARAFAC2(g, irregRows(g, 6, 30, 70), 14, 3, 0.05)
	cfg := smallConfig(3)
	cfg.MaxIters = 5

	cfg.Threads = 1
	want, err := DPar2Ctx(context.Background(), ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []int{2, 3, 6, 8} {
		cfg.Threads = th
		got, err := DPar2Ctx(context.Background(), ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fitness != want.Fitness {
			t.Fatalf("threads=%d fitness %v != serial %v", th, got.Fitness, want.Fitness)
		}
		if !got.H.EqualApprox(want.H, 0) || !got.V.EqualApprox(want.V, 0) {
			t.Fatalf("threads=%d factors differ from serial run", th)
		}
	}

	// The baselines carry the same guarantee: no reduction order may
	// depend on the pool width.
	for name, run := range map[string]func(context.Context, *tensor.Irregular, Config) (*Result, error){
		"ALS": ALSCtx, "RDALS": RDALSCtx, "SPARTan": SPARTanCtx,
	} {
		cfg.Threads = 1
		serial, err := run(context.Background(), ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Threads = 5
		wide, err := run(context.Background(), ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Fitness != wide.Fitness {
			t.Fatalf("%s: threads=5 fitness %v != serial %v", name, wide.Fitness, serial.Fitness)
		}
	}
}

// TestConfigPoolOverridesThreads: with Pool set, Threads is irrelevant —
// including a nonsensical value.
func TestConfigPoolOverridesThreads(t *testing.T) {
	g := rng.New(8)
	ten := synthPARAFAC2(g, irregRows(g, 5, 25, 50), 12, 3, 0.05)
	cfg := smallConfig(3)
	cfg.MaxIters = 4

	serial := cfg
	serial.Threads = 1
	want, err := DPar2Ctx(context.Background(), ten, serial)
	if err != nil {
		t.Fatal(err)
	}

	pool := compute.NewPool(3)
	defer pool.Close()
	withPool := cfg
	withPool.Threads = -99
	withPool.Pool = pool
	got, err := DPar2Ctx(context.Background(), ten, withPool)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fitness != want.Fitness {
		t.Fatalf("pooled fitness %v != serial %v", got.Fitness, want.Fitness)
	}
}
