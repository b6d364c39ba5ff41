// Command experiments regenerates the tables and figures of the DPar2
// paper's evaluation section on synthetic stand-in datasets and prints them
// as plain-text tables. Every decomposition runs through one repro.Engine
// built from the flags (Fig. 11(c) builds one per thread count, since pool
// width is what it measures).
//
//	experiments -all                 # everything (minutes)
//	experiments -fig 1               # trade-off curves (Fig. 1)
//	experiments -fig 9               # preprocessing + per-iteration time
//	experiments -fig 10              # preprocessed data size
//	experiments -fig 11a|11b|11c     # scalability sweeps
//	experiments -fig tall            # tall-slice stage-1 sharding comparison
//	experiments -fig 8|12            # data profile / correlation heatmaps
//	experiments -table 2|3           # dataset summary / similar stocks
//	experiments -all -scale test     # tiny versions: a smoke run of seconds
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"

	"repro"
	"repro/internal/experiments"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate: 1, 8, 9, 10, 11a, 11b, 11c, 12, tall")
		table     = flag.String("table", "", "table to regenerate: 2, 3")
		all       = flag.Bool("all", false, "run every experiment")
		scale     = flag.String("scale", "bench", "dataset scale: bench | test")
		seed      = flag.Uint64("seed", 1, "random seed")
		rank      = flag.Int("rank", 10, "base target rank")
		iters     = flag.Int("iters", 32, "max ALS iterations")
		threads   = flag.Int("threads", repro.DefaultConfig().Threads, "worker threads (<=0 = serial)")
		shardRows = flag.Int("shardrows", 0, "stage-1 sharding threshold in rows (0 = default 64k, <0 = off)")
	)
	flag.Parse()

	// Ctrl-C cancels the sweep between ALS iterations/phases instead of
	// killing it mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sc := experiments.ScaleBench
	if *scale == "test" {
		sc = experiments.ScaleTest
	}
	run := func(name string) bool { return *all || *fig == name || *table == name }

	if !*all && *fig == "" && *table == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := repro.DefaultConfig()
	cfg.Rank = *rank
	cfg.MaxIters = *iters
	cfg.Seed = *seed
	cfg.ShardRows = *shardRows
	eng := repro.NewEngine(repro.WithEngineThreads(*threads), repro.WithBaseConfig(cfg))
	defer eng.Close()

	var datasets []experiments.Dataset
	need := *all || *fig == "1" || *fig == "8" || *fig == "9" || *fig == "10" || *table == "2"
	if need {
		fmt.Fprintln(os.Stderr, "generating datasets...")
		datasets = experiments.LoadAll(*seed, sc)
	}

	if run("2") && *fig == "" {
		experiments.TableII(datasets).Fprint(os.Stdout)
	}
	if run("8") && *table == "" {
		experiments.Fig8Table(datasets).Fprint(os.Stdout)
	}
	if run("1") && *table == "" {
		fmt.Fprintln(os.Stderr, "running Fig. 1 trade-off (all methods, ranks 10/15/20)...")
		ranks := []int{10, 15, 20}
		if sc == experiments.ScaleTest {
			ranks = []int{5}
		}
		results, err := experiments.Fig1(ctx, eng, datasets, ranks)
		fail(err)
		experiments.Fig1Table(results).Fprint(os.Stdout)
	}
	if (run("9") || run("10")) && *table == "" {
		fmt.Fprintln(os.Stderr, "running Fig. 9/10 measurements...")
		results, err := experiments.Fig9(ctx, eng, datasets)
		fail(err)
		if run("9") {
			experiments.Fig9aTable(results).Fprint(os.Stdout)
			experiments.Fig9bTable(results).Fprint(os.Stdout)
		}
		if run("10") {
			experiments.Fig10Table(results).Fprint(os.Stdout)
		}
	}
	if run("11a") && *table == "" {
		fmt.Fprintln(os.Stderr, "running Fig. 11(a) size sweep...")
		shrink := 10
		if sc == experiments.ScaleTest {
			shrink = 40
		}
		pts, err := experiments.Fig11a(ctx, eng, *seed, experiments.Fig11aSizes(shrink))
		fail(err)
		experiments.Fig11aTable(pts).Fprint(os.Stdout)
	}
	if run("11b") && *table == "" {
		fmt.Fprintln(os.Stderr, "running Fig. 11(b) rank sweep...")
		i, j, k := 200, 200, 60
		ranks := []int{10, 20, 30, 40, 50}
		if sc == experiments.ScaleTest {
			i, j, k = 60, 50, 10
			ranks = []int{5, 10}
		}
		pts, err := experiments.Fig11b(ctx, eng, *seed, i, j, k, ranks)
		fail(err)
		experiments.Fig11bTable(pts).Fprint(os.Stdout)
	}
	if run("11c") && *table == "" {
		fmt.Fprintln(os.Stderr, "running Fig. 11(c) thread sweep...")
		i, j, k := 200, 200, 60
		threads := []int{1, 2, 4, 6, 8, 10}
		if sc == experiments.ScaleTest {
			i, j, k = 60, 50, 10
			threads = []int{1, 2}
		}
		pts, err := experiments.Fig11c(ctx, eng, *seed, i, j, k, threads)
		fail(err)
		experiments.Fig11cTable(pts).Fprint(os.Stdout)
	}
	if run("tall") && *table == "" {
		fmt.Fprintln(os.Stderr, "running tall-slice sharding comparison...")
		tallRows, j, k := 32768, 64, 6
		srs := []int{-1, 8192, 4096}
		if sc == experiments.ScaleTest {
			tallRows, j, k = 4096, 32, 4
			srs = []int{-1, 1024, 512}
		}
		pts, err := experiments.TallSlice(ctx, eng, *seed, tallRows, j, k, srs)
		fail(err)
		experiments.TallSliceTable(pts).Fprint(os.Stdout)
	}
	if run("12") && *table == "" {
		fmt.Fprintln(os.Stderr, "running Fig. 12 correlation analysis...")
		for _, name := range []string{"US Stock", "KR Stock"} {
			d, ok := experiments.Load(*seed, sc, name)
			if !ok {
				fail(fmt.Errorf("dataset %q missing", name))
			}
			corr, labels, err := experiments.Fig12(ctx, eng, d)
			fail(err)
			experiments.Fig12Table("Fig. 12: "+name+" feature correlations", corr, labels).Fprint(os.Stdout)
		}
	}
	if run("3") && *fig == "" {
		fmt.Fprintln(os.Stderr, "running Table III similar-stock discovery...")
		d, ok := experiments.Load(*seed, sc, "US Stock")
		if !ok {
			fail(fmt.Errorf("US Stock dataset missing"))
		}
		// Query: a stock with a lower-quartile listing period, so plenty of
		// stocks share (at least) its range.
		target := lowerQuartileRowsIndex(d)
		res, err := experiments.TableIII(ctx, eng, d, target, 10, 0.01)
		fail(err)
		experiments.TableIIITable(res).Fprint(os.Stdout)
		fmt.Printf("sector precision: kNN %.2f, RWR %.2f\n\n",
			experiments.SectorPrecision(res, res.KNN),
			experiments.SectorPrecision(res, res.RWR))
	}
}

// lowerQuartileRowsIndex returns the slice at the lower quartile of the
// height order (ties in slice order).
func lowerQuartileRowsIndex(d experiments.Dataset) int {
	rows := d.Tensor.Rows()
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(rows[a], rows[b]) })
	return idx[len(idx)/4]
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
