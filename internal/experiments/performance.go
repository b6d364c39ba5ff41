package experiments

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"math"
	"slices"
	"time"

	"repro"
)

// legend maps the registered method names (repro.Methods, in the paper's
// legend order) to the paper's legend labels.
var legend = map[repro.MethodID]string{
	repro.MethodDPar2:   "DPar2",
	repro.MethodRDALS:   "RD-ALS",
	repro.MethodALS:     "PARAFAC2-ALS",
	repro.MethodSPARTan: "SPARTan",
}

// label returns the legend label of a registered method, or its name for a
// method the paper does not compare.
func label(m repro.MethodID) string {
	return cmp.Or(legend[m], string(m))
}

// with returns opts followed by more, without writing into opts' backing
// array, so a runner can extend the caller's options once per call.
func with(opts []repro.Option, more ...repro.Option) []repro.Option {
	return append(slices.Clip(opts), more...)
}

// MethodResult is one (dataset, method, rank) measurement.
type MethodResult struct {
	Dataset string
	Method  string
	Rank    int

	TotalTime      time.Duration
	PreprocessTime time.Duration
	TimePerIter    time.Duration
	Iters          int
	Fitness        float64

	InputBytes        int64
	PreprocessedBytes int64
}

// runOne decomposes d on eng under opts and records the measurement under
// the method's legend label and the rank the options resolve to.
func runOne(ctx context.Context, eng *repro.Engine, d Dataset, opts []repro.Option) (MethodResult, error) {
	spec, err := eng.ResolveSpec(opts...)
	if err != nil {
		return MethodResult{}, err
	}
	name := label(spec.Method)
	res, err := eng.Decompose(ctx, d.Tensor, opts...)
	if err != nil {
		return MethodResult{}, fmt.Errorf("%s on %s: %w", name, d.Name, err)
	}
	perIter := time.Duration(0)
	if res.Iters > 0 {
		perIter = res.IterTime / time.Duration(res.Iters)
	}
	return MethodResult{
		Dataset:           d.Name,
		Method:            name,
		Rank:              spec.Rank,
		TotalTime:         res.TotalTime,
		PreprocessTime:    res.PreprocessTime,
		TimePerIter:       perIter,
		Iters:             res.Iters,
		Fitness:           res.Fitness,
		InputBytes:        d.Tensor.SizeBytes(),
		PreprocessedBytes: res.PreprocessedBytes,
	}, nil
}

// runMethods appends to out one measurement of each registered method, in
// legend order, decomposing d on eng under opts.
func runMethods(ctx context.Context, eng *repro.Engine, out []MethodResult, d Dataset, opts []repro.Option) ([]MethodResult, error) {
	for _, m := range repro.Methods() {
		mr, err := runOne(ctx, eng, d, with(opts, repro.WithMethod(repro.MethodID(m))))
		if err != nil {
			return nil, err
		}
		out = append(out, mr)
	}
	return out, nil
}

// points splits results into the runMethods calls that made them: one
// result per registered method each, in legend order.
func points(results []MethodResult) iter.Seq[[]MethodResult] {
	return slices.Chunk(results, len(repro.Methods()))
}

// of returns the result of method m in point p.
func of(p []MethodResult, m repro.MethodID) MethodResult {
	return p[slices.IndexFunc(p, func(r MethodResult) bool { return r.Method == label(m) })]
}

// methodCells renders v of each method of point p in legend order, then the
// fastest other method's v over DPar2's.
func methodCells(p []MethodResult, v func(MethodResult) float64, cell func(float64) string) []string {
	var cells []string
	best := math.Inf(1)
	for _, r := range p {
		cells = append(cells, cell(v(r)))
		if r.Method != label(repro.MethodDPar2) {
			best = min(best, v(r))
		}
	}
	return append(cells, ratio(best, v(of(p, repro.MethodDPar2))))
}

// Fig1 measures the running time vs fitness trade-off of all methods on all
// datasets for the given target ranks (the paper uses 10, 15, 20), running
// each on eng under opts. The context cancels the sweep between (and inside)
// runs.
func Fig1(ctx context.Context, eng *repro.Engine, datasets []Dataset, ranks []int, opts ...repro.Option) ([]MethodResult, error) {
	var out []MethodResult
	var err error
	for _, d := range datasets {
		for _, r := range ranks {
			if out, err = runMethods(ctx, eng, out, d, with(opts, repro.WithRank(r))); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Fig1Table renders Fig. 1 measurements as a table.
func Fig1Table(results []MethodResult) *Table {
	t := &Table{
		Title:  "Fig. 1: total running time vs fitness (per dataset, per rank)",
		Header: []string{"dataset", "rank", "method", "total", "fitness", "iters"},
		Notes: []string{
			"paper's claim: DPar2 gives the best trade-off, up to 6.0x faster at comparable fitness",
		},
	}
	for _, r := range results {
		t.AddRow(r.Dataset, fmt.Sprintf("%d", r.Rank), r.Method,
			secs(r.TotalTime.Seconds()), f4(r.Fitness), fmt.Sprintf("%d", r.Iters))
	}
	return t
}

// Fig9 measures preprocessing time (DPar2 vs RD-ALS, Fig. 9a) and time per
// iteration of every method (Fig. 9b) on eng at the rank opts resolve to.
func Fig9(ctx context.Context, eng *repro.Engine, datasets []Dataset, opts ...repro.Option) ([]MethodResult, error) {
	spec, err := eng.ResolveSpec(opts...)
	if err != nil {
		return nil, err
	}
	return Fig1(ctx, eng, datasets, []int{spec.Rank}, opts...)
}

// Fig9aTable renders preprocessing times (methods without a preprocessing
// phase are shown as n/a, as in the paper).
func Fig9aTable(results []MethodResult) *Table {
	t := &Table{
		Title:  "Fig. 9(a): preprocessing time",
		Header: []string{"dataset", "DPar2", "RD-ALS", "speedup"},
		Notes:  []string{"paper: DPar2 preprocesses up to 10.0x faster than RD-ALS"},
	}
	for p := range points(results) {
		dp := of(p, repro.MethodDPar2).PreprocessTime.Seconds()
		rd := of(p, repro.MethodRDALS).PreprocessTime.Seconds()
		t.AddRow(p[0].Dataset, secs(dp), secs(rd), ratio(rd, dp))
	}
	return t
}

// Fig9bTable renders per-iteration times of all methods.
func Fig9bTable(results []MethodResult) *Table {
	t := &Table{
		Title:  "Fig. 9(b): time per iteration",
		Header: []string{"dataset", "DPar2", "RD-ALS", "PARAFAC2-ALS", "SPARTan", "best-other/DPar2"},
		Notes:  []string{"paper: DPar2 iterates up to 10.3x faster than the second best"},
	}
	perIterMs := func(r MethodResult) float64 { return r.TimePerIter.Seconds() * 1000 }
	for p := range points(results) {
		t.AddRow(append([]string{p[0].Dataset}, methodCells(p, perIterMs, ms)...)...)
	}
	return t
}

// Fig10Table renders the preprocessed-data footprint versus input size
// (PARAFAC2-ALS and SPARTan iterate on the raw input, as in the paper).
func Fig10Table(results []MethodResult) *Table {
	t := &Table{
		Title:  "Fig. 10: size of preprocessed data",
		Header: []string{"dataset", "input", "DPar2", "RD-ALS", "input/DPar2"},
		Notes:  []string{"paper: DPar2's preprocessed data is up to 201x smaller than the input"},
	}
	for p := range points(results) {
		in := of(p, repro.MethodDPar2).InputBytes
		dp := of(p, repro.MethodDPar2).PreprocessedBytes
		rd := of(p, repro.MethodRDALS).PreprocessedBytes
		t.AddRow(p[0].Dataset, mb(in), mb(dp), mb(rd), ratio(float64(in), float64(dp)))
	}
	return t
}

// TableII summarizes the generated datasets next to the paper's dimensions.
func TableII(datasets []Dataset) *Table {
	t := &Table{
		Title:  "Table II: datasets (generated stand-in vs paper)",
		Header: []string{"dataset", "max I_k", "J", "K", "paper max I_k", "paper J", "paper K", "summary"},
	}
	for _, d := range datasets {
		t.AddRow(d.Name,
			fmt.Sprintf("%d", d.Tensor.MaxRows()),
			fmt.Sprintf("%d", d.Tensor.J),
			fmt.Sprintf("%d", d.Tensor.K()),
			fmt.Sprintf("%d", d.PaperMaxI),
			fmt.Sprintf("%d", d.PaperJ),
			fmt.Sprintf("%d", d.PaperK),
			d.Summary)
	}
	return t
}
