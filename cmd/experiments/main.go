// Command experiments regenerates the tables and figures of the DPar2
// paper's evaluation section on synthetic stand-in datasets and prints them
// as plain-text tables. Every decomposition runs through one repro.Engine
// built from the flags (Fig. 11(c) builds one per thread count, since pool
// width is what it measures).
//
//	experiments -all                 # everything, in the order below (minutes)
//	experiments -table 2             # dataset summary
//	experiments -fig 8|1             # data profile / trade-off curves
//	experiments -fig 9|10            # preprocessing + per-iteration time / preprocessed size
//	experiments -fig 11a|11b|11c     # scalability sweeps
//	experiments -fig tall            # tall-slice stage-1 sharding comparison
//	experiments -fig 12 -table 3     # correlation heatmaps and similar stocks
//	experiments -all -scale test     # tiny versions: a smoke run of seconds
//
// -fig and -table combine. -scale is bench (the default) or test. No
// selection, or an unknown -fig, -table or -scale value, prints the usage
// and exits 2. Each Table II dataset is generated at most once per run, and
// only when a selected output reads it.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"

	"repro"
	"repro/internal/experiments"
)

// output is one table or figure of the paper: the -fig or -table value
// that selects it, the Table II datasets it reads, and how it runs on them.
type output struct {
	kind, name string // kind is "fig" or "table"
	datasets   []string
	run        func(h *harness, ds []experiments.Dataset) error
}

// tableII names all eight Table II datasets; stocks the two markets.
var (
	tableII = experiments.Names()
	stocks  = []string{"US Stock", "KR Stock"}
)

// outputs lists every output in the order -all runs them.
var outputs = []output{
	{"table", "2", tableII, func(_ *harness, ds []experiments.Dataset) error { return show(ds, nil, experiments.TableII) }},
	{"fig", "8", stocks, func(_ *harness, ds []experiments.Dataset) error { return show(ds, nil, experiments.Fig8Table) }},
	{"fig", "1", tableII, func(h *harness, ds []experiments.Dataset) error {
		results, err := experiments.Fig1(h.ctx, h.eng, ds, at(h, []int{10, 15, 20}, []int{5}))
		return show(results, err, experiments.Fig1Table)
	}},
	{"fig", "9", tableII, func(h *harness, _ []experiments.Dataset) error {
		results, err := h.fig9()
		return show(results, err, experiments.Fig9aTable, experiments.Fig9bTable)
	}},
	{"fig", "10", tableII, func(h *harness, _ []experiments.Dataset) error {
		results, err := h.fig9()
		return show(results, err, experiments.Fig10Table)
	}},
	{"fig", "11a", nil, func(h *harness, _ []experiments.Dataset) error {
		results, err := experiments.Fig11a(h.ctx, h.eng, h.seed, experiments.Fig11aSizes(at(h, 10, 40)))
		return show(results, err, experiments.Fig11aTable)
	}},
	{"fig", "11b", nil, func(h *harness, _ []experiments.Dataset) error {
		d, ranks := at(h, [3]int{200, 200, 60}, [3]int{60, 50, 10}), at(h, []int{10, 20, 30, 40, 50}, []int{5, 10})
		results, err := experiments.Fig11b(h.ctx, h.eng, h.seed, d[0], d[1], d[2], ranks)
		return show(results, err, experiments.Fig11bTable)
	}},
	{"fig", "11c", nil, func(h *harness, _ []experiments.Dataset) error {
		d, threads := at(h, [3]int{200, 200, 60}, [3]int{60, 50, 10}), at(h, []int{1, 2, 4, 6, 8, 10}, []int{1, 2})
		pts, err := experiments.Fig11c(h.ctx, h.eng, h.seed, d[0], d[1], d[2], threads)
		return show(pts, err, experiments.Fig11cTable)
	}},
	{"fig", "tall", nil, func(h *harness, _ []experiments.Dataset) error {
		d, srs := at(h, [3]int{32768, 64, 6}, [3]int{4096, 32, 4}), at(h, []int{-1, 8192, 4096}, []int{-1, 1024, 512})
		pts, err := experiments.TallSlice(h.ctx, h.eng, h.seed, d[0], d[1], d[2], srs)
		return show(pts, err, experiments.TallSliceTable)
	}},
	{"fig", "12", stocks, func(h *harness, ds []experiments.Dataset) error {
		for _, d := range ds {
			corr, labels, err := experiments.Fig12(h.ctx, h.eng, d)
			if err != nil {
				return err
			}
			experiments.Fig12Table("Fig. 12: "+d.Name+" feature correlations", corr, labels).Fprint(os.Stdout)
		}
		return nil
	}},
	{"table", "3", []string{"US Stock"}, func(h *harness, ds []experiments.Dataset) error {
		d := ds[0]
		res, err := experiments.TableIII(h.ctx, h.eng, d, lowerQuartileRowsIndex(d), 10, 0.01)
		if err != nil {
			return err
		}
		experiments.TableIIITable(res).Fprint(os.Stdout)
		fmt.Printf("sector precision: kNN %.2f, RWR %.2f\n\n",
			experiments.SectorPrecision(res, res.KNN),
			experiments.SectorPrecision(res, res.RWR))
		return nil
	}},
}

// show prints the tables renders make of v, or returns the error of v's run.
func show[T any](v T, err error, renders ...func(T) *experiments.Table) error {
	if err != nil {
		return err
	}
	for _, render := range renders {
		render(v).Fprint(os.Stdout)
	}
	return nil
}

// harness is what the outputs run on. loaded holds the Table II datasets
// generated so far, by name; fig9 runs the measurement Figs. 9 and 10 share
// once.
type harness struct {
	ctx    context.Context
	eng    *repro.Engine
	seed   uint64
	sc     experiments.Scale
	loaded map[string]experiments.Dataset
	fig9   func() ([]experiments.MethodResult, error)
}

// at returns bench at -scale bench and test at -scale test.
func at[T any](h *harness, bench, test T) T {
	if h.sc == experiments.ScaleTest {
		return test
	}
	return bench
}

// datasets returns the named Table II datasets in order, generating through
// experiments.Load each one not yet loaded.
func (h *harness) datasets(names []string) []experiments.Dataset {
	ds := make([]experiments.Dataset, len(names))
	for i, name := range names {
		d, ok := h.loaded[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "generating %s...\n", name)
			d, _ = experiments.Load(h.seed, h.sc, name)
			h.loaded[name] = d
		}
		ds[i] = d
	}
	return ds
}

// scales maps the -scale values to dataset scales.
var scales = map[string]experiments.Scale{"bench": experiments.ScaleBench, "test": experiments.ScaleTest}

// choose returns the outputs that -all, -fig and -table select, in table
// order, and the scale -scale names. An unknown name or scale, or no
// selection, is an error.
func choose(all bool, fig, table, scale string) ([]output, experiments.Scale, error) {
	sc, ok := scales[scale]
	switch {
	case !ok:
		return nil, 0, fmt.Errorf("unknown -scale %q", scale)
	case fig != "" && !slices.Contains(names("fig"), fig):
		return nil, 0, fmt.Errorf("unknown -fig %q", fig)
	case table != "" && !slices.Contains(names("table"), table):
		return nil, 0, fmt.Errorf("unknown -table %q", table)
	}
	var picked []output
	for _, o := range outputs {
		if all || o.kind == "fig" && o.name == fig || o.kind == "table" && o.name == table {
			picked = append(picked, o)
		}
	}
	if len(picked) == 0 {
		return nil, 0, errors.New("nothing selected: pass -all, -fig or -table")
	}
	return picked, sc, nil
}

// names lists the names of one kind of output, in table order.
func names(kind string) []string {
	var ns []string
	for _, o := range outputs {
		if o.kind == kind {
			ns = append(ns, o.name)
		}
	}
	return ns
}

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate: "+strings.Join(names("fig"), ", "))
		table     = flag.String("table", "", "table to regenerate: "+strings.Join(names("table"), ", "))
		all       = flag.Bool("all", false, "run every experiment")
		scale     = flag.String("scale", "bench", "dataset scale: bench | test")
		seed      = flag.Uint64("seed", 1, "random seed")
		rank      = flag.Int("rank", 10, "base target rank")
		iters     = flag.Int("iters", 32, "max ALS iterations")
		threads   = flag.Int("threads", repro.DefaultConfig().Threads, "worker threads (<=0 = serial)")
		shardRows = flag.Int("shardrows", 0, "stage-1 sharding threshold in rows (0 = default 64k, <0 = off)")
	)
	flag.Parse()
	picked, sc, err := choose(*all, *fig, *table, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		os.Exit(2)
	}

	// Ctrl-C cancels the sweep between ALS iterations/phases instead of
	// killing it mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := repro.DefaultConfig()
	cfg.Rank = *rank
	cfg.MaxIters = *iters
	cfg.Seed = *seed
	cfg.ShardRows = *shardRows
	eng := repro.NewEngine(repro.WithEngineThreads(*threads), repro.WithBaseConfig(cfg))
	defer eng.Close()

	h := &harness{ctx: ctx, eng: eng, seed: *seed, sc: sc, loaded: map[string]experiments.Dataset{}}
	h.fig9 = sync.OnceValues(func() ([]experiments.MethodResult, error) {
		return experiments.Fig9(ctx, eng, h.datasets(tableII))
	})
	for _, o := range picked {
		fmt.Fprintf(os.Stderr, "running -%s %s...\n", o.kind, o.name)
		if err := o.run(h, h.datasets(o.datasets)); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// lowerQuartileRowsIndex returns Table III's query: the slice at the lower
// quartile of the height order (ties in slice order), a stock with a
// listing period that plenty of stocks share (at least).
func lowerQuartileRowsIndex(d experiments.Dataset) int {
	rows := d.Tensor.Rows()
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(rows[a], rows[b]) })
	return idx[len(idx)/4]
}
