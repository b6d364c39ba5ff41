package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// ExampleEngine_Decompose is the canonical entry point: one Engine, any
// registered method, cancellable through the context.
func ExampleEngine_Decompose() {
	eng := repro.NewEngine(repro.WithEngineThreads(1))
	defer eng.Close()

	g := repro.NewRNG(1)
	ten := repro.LowRankTensor(g, []int{40, 60, 50}, 20, 3, 0)

	res, err := eng.Decompose(context.Background(), ten,
		repro.WithMethod(repro.MethodDPar2), // the default
		repro.WithRank(3), repro.WithMaxIters(200), repro.WithTolerance(1e-12))
	if err != nil {
		panic(err)
	}
	fmt.Printf("fitness > 0.99: %v\n", res.Fitness > 0.99)
	fmt.Printf("V shape: %dx%d\n", res.V.Rows, res.V.Cols)
	// Output:
	// fitness > 0.99: true
	// V shape: 20x3
}

// ExampleEngine_Submit runs a batch of decompositions through the bounded
// job queue on one shared pool — the multi-tenant serving path.
func ExampleEngine_Submit() {
	eng := repro.NewEngine(repro.WithEngineThreads(2))
	defer eng.Close()
	ctx := context.Background()

	pending := make([]<-chan repro.JobResult, 3)
	for i := range pending {
		g := repro.NewRNG(uint64(i))
		pending[i] = eng.Submit(ctx, repro.Job{
			Tensor: repro.LowRankTensor(g, []int{30, 40, 35}, 15, 3, 0),
			Tag:    fmt.Sprintf("job-%d", i),
			Options: []repro.Option{
				repro.WithRank(3), repro.WithMaxIters(100), repro.WithSeed(uint64(i)),
			},
		})
	}
	for _, ch := range pending {
		jr := <-ch
		res, err := jr.Result()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s fit>0.9: %v\n", jr.Tag, res.Fitness > 0.9)
	}
	// Output:
	// job-0 fit>0.9: true
	// job-1 fit>0.9: true
	// job-2 fit>0.9: true
}

// ExampleOption decomposes a small irregular tensor with DPar2 under
// per-call options, and reports the fitness. The options apply over
// DefaultSpec; the Engine's pool width is an EngineOption of its own.
func ExampleOption() {
	g := repro.NewRNG(1)
	// Exact rank-3 PARAFAC2 structure: fitness must reach ~1.
	ten := repro.LowRankTensor(g, []int{40, 60, 50}, 20, 3, 0)

	eng := repro.NewEngine(repro.WithEngineThreads(1))
	defer eng.Close()
	res, err := eng.Decompose(context.Background(), ten,
		repro.WithRank(3), repro.WithMaxIters(200), repro.WithTolerance(1e-12))
	if err != nil {
		panic(err)
	}
	fmt.Printf("fitness > 0.99: %v\n", res.Fitness > 0.99)
	fmt.Printf("V shape: %dx%d\n", res.V.Rows, res.V.Cols)
	// Output:
	// fitness > 0.99: true
	// V shape: 20x3
}

// ExampleEngine_Compress shows amortizing the two-stage compression across
// runs.
func ExampleEngine_Compress() {
	g := repro.NewRNG(2)
	ten := repro.LowRankTensor(g, []int{50, 70}, 25, 4, 0.01)

	eng := repro.NewEngine(repro.WithEngineThreads(1))
	defer eng.Close()
	ctx := context.Background()

	comp, err := eng.Compress(ctx, ten, repro.WithRank(4))
	if err != nil {
		panic(err)
	}
	fmt.Printf("compressed smaller than input: %v\n", comp.SizeBytes() < ten.SizeBytes())

	res, err := eng.DecomposeCompressed(ctx, comp, repro.WithRank(4))
	if err != nil {
		panic(err)
	}
	fmt.Printf("fitness > 0.95: %v\n", eng.Fitness(ten, res) > 0.95)
	// Output:
	// compressed smaller than input: true
	// fitness > 0.95: true
}

// ExampleDetectAnomalies flags a corrupted slice by its residual.
func ExampleDetectAnomalies() {
	g := repro.NewRNG(3)
	ten := repro.LowRankTensor(g, []int{40, 40, 40, 40, 40, 40}, 16, 2, 0.01)
	// Replace slice 4 with pure noise.
	g.NormSlice(ten.Slices[4].Data)

	eng := repro.NewEngine(repro.WithEngineThreads(1))
	defer eng.Close()
	res, err := eng.Decompose(context.Background(), ten, repro.WithRank(2))
	if err != nil {
		panic(err)
	}
	for _, a := range repro.DetectAnomalies(ten, res, 3.5) {
		fmt.Printf("anomalous slice: %d\n", a.Slice)
	}
	// Output:
	// anomalous slice: 4
}

// ExampleKNN finds the nearest neighbors under a similarity matrix.
func ExampleKNN() {
	sim := repro.NewMatrixFromData(3, 3, []float64{
		1.0, 0.9, 0.1,
		0.9, 1.0, 0.2,
		0.1, 0.2, 1.0,
	})
	for _, n := range repro.KNN(sim, 0, 2) {
		fmt.Printf("neighbor %d score %.1f\n", n.Index, n.Score)
	}
	// Output:
	// neighbor 1 score 0.9
	// neighbor 2 score 0.1
}
