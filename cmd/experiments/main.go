// Command experiments regenerates the tables and figures of the DPar2
// paper's evaluation section on synthetic stand-in datasets and prints them
// as plain-text tables.
//
//	experiments -all                 # everything (minutes)
//	experiments -fig 1               # trade-off curves (Fig. 1)
//	experiments -fig 9               # preprocessing + per-iteration time
//	experiments -fig 10              # preprocessed data size
//	experiments -fig 11a|11b|11c     # scalability sweeps
//	experiments -fig tall            # tall-slice stage-1 sharding comparison
//	experiments -fig 8|12            # data profile / correlation heatmaps
//	experiments -table 2|3           # dataset summary / similar stocks
//	experiments -fleet               # multi-tenant admission-control scenario
//	experiments -scale test          # tiny versions (CI-friendly)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro"
	"repro/internal/compute"
	"repro/internal/experiments"
	"repro/internal/parafac2"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate: 1, 8, 9, 10, 11a, 11b, 11c, 12, tall")
		table     = flag.String("table", "", "table to regenerate: 2, 3")
		fleet     = flag.Bool("fleet", false, "run the multi-tenant admission-control scenario")
		all       = flag.Bool("all", false, "run every experiment")
		scale     = flag.String("scale", "bench", "dataset scale: bench | test")
		seed      = flag.Uint64("seed", 1, "random seed")
		rank      = flag.Int("rank", 10, "base target rank")
		iters     = flag.Int("iters", 32, "max ALS iterations")
		threads   = flag.Int("threads", parafac2.DefaultConfig().Threads, "worker threads (<=0 = serial)")
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
	cfg := parafac2.DefaultConfig()
	cfg.Rank = *rank
	cfg.MaxIters = *iters
	cfg.Seed = *seed
	cfg.Threads = *threads
	cfg.ShardRows = *shardRows

	// One long-lived pool for every experiment in the run (the Fig. 11c
	// thread sweep overrides it per measurement — pool width is what it
	// measures).
	pool := compute.NewPool(*threads)
	defer pool.Close()
	cfg.Pool = pool

	run := func(name string) bool { return *all || *fig == name || *table == name }

	if !*all && *fig == "" && *table == "" && !*fleet {
		flag.Usage()
		os.Exit(2)
	}

	if *fleet || *all {
		runFleet(ctx, cfg, pool, sc)
	}

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
		results, err := experiments.Fig1(ctx, datasets, ranks, cfg)
		fail(err)
		experiments.Fig1Table(results).Fprint(os.Stdout)
	}
	if (run("9") || run("10")) && *table == "" {
		fmt.Fprintln(os.Stderr, "running Fig. 9/10 measurements...")
		results, err := experiments.Fig9(ctx, datasets, cfg)
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
		pts, err := experiments.Fig11a(ctx, *seed, experiments.Fig11aSizes(shrink), cfg)
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
		pts, err := experiments.Fig11b(ctx, *seed, i, j, k, ranks, cfg)
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
		pts, err := experiments.Fig11c(ctx, *seed, i, j, k, threads, cfg)
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
		pts, err := experiments.TallSlice(ctx, *seed, cfg, tallRows, j, k, srs)
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
			corr, labels, err := experiments.Fig12(ctx, d, cfg)
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
		// Query: the stock with the median listing period, so plenty of
		// stocks share (at least) its range.
		target := medianRowsIndex(d)
		res, err := experiments.TableIII(ctx, d, cfg, target, 10, 0.01)
		fail(err)
		experiments.TableIIITable(res).Fprint(os.Stdout)
		fmt.Printf("sector precision: kNN %.2f, RWR %.2f\n\n",
			experiments.SectorPrecision(res, res.KNN),
			experiments.SectorPrecision(res, res.RWR))
	}
}

// runFleet is the -fleet scenario: a served-traffic demonstration of the
// Engine's admission control. Three tenants share one Engine — an
// "interactive" tenant submitting small high-priority jobs, a "batch" tenant
// with a low-priority backlog squeezed by a per-tenant override, and a
// "noisy" tenant bursting past its queued quota (its excess is rejected with
// ErrQuotaExceeded instead of starving the queue). Engine.Stats supplies the
// per-tenant admitted/rejected/completed counters and latencies printed as
// the served-traffic table.
func runFleet(ctx context.Context, cfg parafac2.Config, pool *compute.Pool, sc experiments.Scale) {
	fmt.Fprintln(os.Stderr, "running multi-tenant fleet scenario...")
	eng := repro.NewEngine(
		repro.WithEnginePool(pool), // shared with the other experiments; Close leaves it open
		repro.WithBaseConfig(cfg),
		repro.WithJobConcurrency(2),
		repro.WithQueueDepth(16),
		repro.WithTenantQuota(8, 2),
		repro.WithTenantQuotaOverrides(map[string]repro.TenantQuota{
			"batch": {MaxQueued: 4, MaxRunning: 1},
			"noisy": {MaxQueued: 2, MaxRunning: 1},
		}),
	)
	defer eng.Close()

	interactive, batch, noisyBurst := 8, 4, 12
	size := 100
	if sc == experiments.ScaleTest {
		interactive, batch, noisyBurst = 4, 2, 6
		size = 40
	}
	var pending []<-chan repro.JobResult
	submit := func(tenant string, priority, n, rows int, iters int) {
		for i := 0; i < n; i++ {
			g := repro.NewRNG(uint64(1000 + len(pending)))
			pending = append(pending, eng.Submit(ctx, repro.Job{
				Tensor:   repro.RandomTensor(g, rows, 40, 12),
				Tag:      fmt.Sprintf("%s-%02d", tenant, i),
				Tenant:   tenant,
				Priority: priority,
				Options: []repro.Option{
					repro.WithRank(5), repro.WithMaxIters(iters),
					repro.WithSeed(uint64(i)),
				},
			}))
		}
	}
	start := time.Now()
	submit("batch", 0, batch, 3*size, 12)           // pre-queued low-priority backlog
	submit("interactive", 10, interactive, size, 6) // jumps the backlog
	submit("noisy", 0, noisyBurst, size, 6)         // bursts past its MaxQueued 2 override

	var rejected int
	for _, ch := range pending {
		jr := <-ch
		switch {
		case jr.Err == nil:
		case errors.Is(jr.Err, repro.ErrQuotaExceeded):
			rejected++
		case errors.Is(jr.Err, context.Canceled):
		default:
			fail(fmt.Errorf("fleet job %s: %w", jr.Tag, jr.Err))
		}
	}
	wall := time.Since(start).Round(time.Millisecond)

	fmt.Println("== Fleet: served traffic under admission control ==")
	stats := eng.Stats()
	fmt.Print(stats)
	it, bt := stats.Tenant("interactive"), stats.Tenant("batch")
	fmt.Printf("priority effect: interactive mean wait %v vs batch %v; %d noisy submits rejected; wall %v\n\n",
		it.MeanQueueWait().Round(time.Microsecond), bt.MeanQueueWait().Round(time.Microsecond),
		rejected, wall)
}

func medianRowsIndex(d experiments.Dataset) int {
	rows := d.Tensor.Rows()
	type pair struct{ rows, idx int }
	ps := make([]pair, len(rows))
	for i, r := range rows {
		ps[i] = pair{r, i}
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].rows < ps[j-1].rows; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return ps[len(ps)/4].idx // lower quartile: many stocks cover its range
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
