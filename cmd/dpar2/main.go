// Command dpar2 decomposes an irregular dense tensor with a chosen
// PARAFAC2 method and reports fitness and timing.
//
// The tensor is either generated (-data with one of the Table II stand-ins
// or "random"/"lowrank") or loaded from a directory of CSV slice files
// (-input dir, one file per slice, rows = I_k, comma-separated columns = J).
//
// Examples:
//
//	dpar2 -data "US Stock" -rank 10 -method dpar2
//	dpar2 -data random -I 200 -J 100 -K 50 -method als
//	dpar2 -input ./slices -rank 15 -method rdals -threads 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func main() {
	var (
		data        = flag.String("data", "lowrank", `generated dataset: one of the Table II names ("FMA", "US Stock", ...), "random", or "lowrank"`)
		input       = flag.String("input", "", "directory of CSV slice files (overrides -data)")
		method      = flag.String("method", "dpar2", "dpar2 | rdals | als | spartan")
		rank        = flag.Int("rank", 10, "target rank R")
		iters       = flag.Int("iters", 32, "max ALS iterations")
		tol         = flag.Float64("tol", 1e-6, "relative convergence tolerance")
		threads     = flag.Int("threads", 6, "worker threads")
		seed        = flag.Uint64("seed", 1, "random seed")
		dimI        = flag.Int("I", 200, "slice height for -data random/lowrank")
		dimJ        = flag.Int("J", 100, "columns for -data random/lowrank")
		dimK        = flag.Int("K", 50, "slices for -data random/lowrank")
		noise       = flag.Float64("noise", 0.05, "relative noise for -data lowrank")
		verbose     = flag.Bool("v", false, "print per-iteration convergence trace")
		saveFactors = flag.String("save-factors", "", "write the factor matrices to this file (binary DPF2 format)")
		saveTensor  = flag.String("save-tensor", "", "write the (generated/loaded) tensor to this file (binary DPT2 format)")
		loadBinary  = flag.String("load-tensor", "", "read a binary DPT2 tensor file (overrides -data and -input)")
		checkpoint  = flag.String("checkpoint", "", "stream the decomposition and write a resumable checkpoint to this file (binary DPC2 format)")
		resume      = flag.String("resume", "", "resume a streamed decomposition from this checkpoint and absorb the input tensor as the next batch")
		cacheDir    = flag.String("cache", "", "state directory: enables the content-addressed result cache (repeat runs with identical input and knobs are served from disk)")
	)
	flag.Parse()

	var ten *tensor.Irregular
	var err error
	if *loadBinary != "" {
		ten, err = dataio.LoadTensor(*loadBinary)
	} else {
		ten, err = loadTensor(*input, *data, *seed, *dimI, *dimJ, *dimK, *noise)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpar2:", err)
		os.Exit(1)
	}
	if *saveTensor != "" {
		if err := dataio.SaveTensor(*saveTensor, ten); err != nil {
			fmt.Fprintln(os.Stderr, "dpar2: save tensor:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tensor written to %s\n", *saveTensor)
	}

	// Ctrl-C cancels the decomposition between ALS iterations/phases.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// One Engine (worker pool of width -threads, via the single <=0=serial
	// clamping rule) runs whichever registered method -method names; the
	// registry resolves the aliases this flag has always accepted. -cache
	// additionally gives the Engine a state directory with a bounded
	// content-addressed result cache.
	engOpts := []repro.EngineOption{repro.WithEngineThreads(*threads)}
	if *cacheDir != "" {
		engOpts = append(engOpts, repro.WithStateDir(*cacheDir), repro.WithResultCache(1<<30))
	}
	eng := repro.NewEngine(engOpts...)
	defer eng.Close()

	opts := []repro.Option{
		repro.WithMethod(repro.MethodID(*method)),
		repro.WithRank(*rank),
		repro.WithMaxIters(*iters),
		repro.WithTolerance(*tol),
		repro.WithSeed(*seed),
	}
	var trace []float64
	if *verbose {
		opts = append(opts, repro.WithProgress(func(_ int, measure float64) bool {
			trace = append(trace, measure)
			return true
		}))
	}
	var res *repro.Result
	if *checkpoint != "" || *resume != "" {
		res, err = runStreamed(ctx, eng, ten, opts, *resume, *checkpoint)
	} else {
		res, err = eng.Decompose(ctx, ten, opts...)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "dpar2: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "dpar2:", err)
		os.Exit(1)
	}
	if *cacheDir != "" {
		st := eng.Stats().Tenant("")
		fmt.Fprintf(os.Stderr, "result cache  %d hit(s), %d miss(es)\n", st.CacheHits, st.CacheMisses)
	}

	fmt.Printf("method        %s\n", *method)
	fmt.Printf("tensor        K=%d slices, J=%d columns, max I_k=%d, %d elements\n",
		ten.K(), ten.J, ten.MaxRows(), ten.NumElements())
	fmt.Printf("rank          %d\n", *rank)
	fmt.Printf("iterations    %d\n", res.Iters)
	fmt.Printf("fitness       %.6f (%s)\n", res.Fitness, res.FitnessKind)
	fmt.Printf("preprocess    %v\n", res.PreprocessTime)
	fmt.Printf("iteration     %v total", res.IterTime)
	if res.Iters > 0 {
		fmt.Printf(" (%v/iter)", res.IterTime/time.Duration(res.Iters))
	}
	fmt.Println()
	fmt.Printf("total         %v\n", res.TotalTime)
	fmt.Printf("footprint     input %.2f MB, iterated-on %.2f MB (%.1fx smaller)\n",
		float64(ten.SizeBytes())/(1<<20), float64(res.PreprocessedBytes)/(1<<20),
		float64(ten.SizeBytes())/float64(res.PreprocessedBytes))
	if *verbose {
		for i, e := range trace {
			fmt.Printf("iter %3d  convergence measure %.6g\n", i+1, e)
		}
	}
	if *saveFactors != "" {
		if err := dataio.SaveResult(*saveFactors, res); err != nil {
			fmt.Fprintln(os.Stderr, "dpar2: save factors:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "factors written to %s\n", *saveFactors)
	}
}

// runStreamed runs the decomposition through the streaming DPar2 path so it
// can be checkpointed and resumed: -resume restores the saved stream and
// absorbs the input tensor as its next batch (rank/seed/iteration knobs come
// from the checkpoint, not the flags); otherwise a fresh stream starts on the
// input. -checkpoint then persists the stream atomically for a later -resume.
func runStreamed(ctx context.Context, eng *repro.Engine, ten *tensor.Irregular, opts []repro.Option, resume, checkpoint string) (*repro.Result, error) {
	var st *repro.StreamingDPar2
	var err error
	if resume != "" {
		st, err = eng.ResumeStream(ctx, resume)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		if err := st.AbsorbCtx(ctx, ten.Slices); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "resumed from %s: stream now holds %d slices\n", resume, st.K())
	} else {
		st, err = eng.NewStream(ctx, ten, opts...)
		if err != nil {
			return nil, err
		}
	}
	if checkpoint != "" {
		if err := eng.SaveStream(checkpoint, st); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint written to %s\n", checkpoint)
	}
	return st.Result(), nil
}

// loadTensor resolves the input tensor: CSV directory, a named Table II
// stand-in, or a parameterized synthetic.
func loadTensor(inputDir, data string, seed uint64, i, j, k int, noise float64) (*tensor.Irregular, error) {
	if inputDir != "" {
		return loadCSVDir(inputDir)
	}
	g := rng.New(seed)
	switch strings.ToLower(data) {
	case "random":
		if i < 1 || j < 1 || k < 1 {
			return nil, fmt.Errorf("-data random needs -I, -J and -K of at least 1, got %d, %d, %d", i, j, k)
		}
		return datagen.RandomIrregular(g, i, j, k), nil
	case "lowrank":
		// Slice heights are drawn from [I/2, I], so I of 1 would allow an
		// empty slice.
		if i < 2 || j < 1 || k < 1 {
			return nil, fmt.Errorf("-data lowrank needs -I of at least 2 and -J, -K of at least 1, got %d, %d, %d", i, j, k)
		}
		rows := make([]int, k)
		for idx := range rows {
			rows[idx] = i/2 + g.Intn(i/2+1)
		}
		return datagen.LowRank(g, rows, j, 10, noise), nil
	default:
		d, ok := experiments.Load(seed, experiments.ScaleBench, data)
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q (try one of the Table II names, random, lowrank)", data)
		}
		return d.Tensor, nil
	}
}

// loadCSVDir reads every *.csv in dir (sorted by name) as one slice.
func loadCSVDir(dir string) (*tensor.Irregular, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .csv files in %s", dir)
	}
	sort.Strings(names)
	slices := make([]*mat.Dense, 0, len(names))
	for _, n := range names {
		m, err := readCSVMatrix(filepath.Join(dir, n))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		slices = append(slices, m)
	}
	return tensor.NewIrregular(slices)
}

func readCSVMatrix(path string) (*mat.Dense, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var rows [][]float64
	for ln, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		row := make([]float64, len(fields))
		for fi, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("line %d field %d: %w", ln+1, fi+1, err)
			}
			row[fi] = v
		}
		if len(rows) > 0 && len(row) != len(rows[0]) {
			return nil, fmt.Errorf("ragged row at line %d", ln+1)
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty file")
	}
	m := mat.New(len(rows), len(rows[0]))
	for ri, row := range rows {
		copy(m.Row(ri), row)
	}
	return m, nil
}
