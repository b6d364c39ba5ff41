package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/rng"
	"repro/internal/rsvd"
)

// Fig11aSizes returns the sweep geometry. The paper uses
// {1000³ … 2000×2000×4000}; the default harness scales each dimension down
// by `shrink` (e.g. 10 → 100×100×100 … 200×200×400) to stay laptop-sized
// while preserving the relative growth between points.
func Fig11aSizes(shrink int) [][3]int {
	base := [][3]int{
		{1000, 1000, 1000},
		{1000, 1000, 2000},
		{2000, 1000, 2000},
		{2000, 2000, 2000},
		{2000, 2000, 4000},
	}
	if shrink <= 1 {
		return base
	}
	out := make([][3]int, len(base))
	for i, b := range base {
		out[i] = [3]int{b[0] / shrink, b[1] / shrink, b[2] / shrink}
	}
	return out
}

// Fig11a runs the tensor-size scalability sweep with all methods on eng
// under opts: one measurement per method per size, each size a Dataset named
// IxJxK.
func Fig11a(ctx context.Context, eng *repro.Engine, seed uint64, sizes [][3]int, opts ...repro.Option) ([]MethodResult, error) {
	var out []MethodResult
	var err error
	for _, s := range sizes {
		if out, err = runMethods(ctx, eng, out, randomDataset(seed, s[0], s[1], s[2]), opts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fig11aTable renders the size sweep.
func Fig11aTable(results []MethodResult) *Table {
	t := &Table{
		Title:  "Fig. 11(a): running time vs tensor size",
		Header: []string{"IxJxK", "elements", "DPar2", "RD-ALS", "PARAFAC2-ALS", "SPARTan", "2nd-best/DPar2"},
		Notes:  []string{"paper: DPar2 is up to 15.3x faster; its slope is the lowest"},
	}
	for p := range points(results) {
		elements := fmt.Sprintf("%d", p[0].InputBytes/8) // 8-byte values
		t.AddRow(append([]string{p[0].Dataset, elements}, methodCells(p, totalSecs, secs)...)...)
	}
	return t
}

// Fig11b sweeps the target rank on a fixed synthetic tensor, running every
// method on eng under opts: one measurement per method per rank.
func Fig11b(ctx context.Context, eng *repro.Engine, seed uint64, i, j, k int, ranks []int, opts ...repro.Option) ([]MethodResult, error) {
	return Fig1(ctx, eng, []Dataset{randomDataset(seed, i, j, k)}, ranks, opts...)
}

// Fig11bTable renders the rank sweep.
func Fig11bTable(results []MethodResult) *Table {
	t := &Table{
		Title:  "Fig. 11(b): running time vs target rank",
		Header: []string{"rank", "DPar2", "RD-ALS", "PARAFAC2-ALS", "SPARTan", "2nd-best/DPar2"},
		Notes:  []string{"paper: up to 15.9x faster; gap narrows at high ranks (randomized SVD targets low rank)"},
	}
	for p := range points(results) {
		t.AddRow(append([]string{fmt.Sprintf("%d", p[0].Rank)}, methodCells(p, totalSecs, secs)...)...)
	}
	return t
}

// randomDataset is the sweeps' uniform random i×j×k tensor, named IxJxK.
func randomDataset(seed uint64, i, j, k int) Dataset {
	return Dataset{Name: fmt.Sprintf("%dx%dx%d", i, j, k), Tensor: datagen.RandomIrregular(rng.New(seed), i, j, k)}
}

func totalSecs(r MethodResult) float64 { return r.TotalTime.Seconds() }

// ThreadPoint is one measurement of the Fig. 11(c) multi-core sweep.
type ThreadPoint struct {
	Threads int
	Time    time.Duration
	Speedup float64 // T1/TM
}

// Fig11c measures DPar2's running time for each thread count. Pool width is
// what the sweep measures, so each count runs on an Engine of its own width
// under the Spec that opts resolve to on eng.
//
// On a single-core host the speedup cannot materialize in wall-clock time;
// the table still reports the measured times.
func Fig11c(ctx context.Context, eng *repro.Engine, seed uint64, i, j, k int, threadCounts []int, opts ...repro.Option) ([]ThreadPoint, error) {
	spec, err := eng.ResolveSpec(opts...)
	if err != nil {
		return nil, err
	}
	ten := randomDataset(seed, i, j, k).Tensor
	var out []ThreadPoint
	var t1 time.Duration
	for _, th := range threadCounts {
		wide := repro.NewEngine(repro.WithEngineThreads(th))
		res, err := wide.Decompose(ctx, ten, repro.WithSpec(spec))
		wide.Close()
		if err != nil {
			return nil, err
		}
		if th == threadCounts[0] {
			t1 = res.TotalTime
		}
		sp := 0.0
		if res.TotalTime > 0 {
			sp = t1.Seconds() / res.TotalTime.Seconds()
		}
		out = append(out, ThreadPoint{Threads: th, Time: res.TotalTime, Speedup: sp})
	}
	return out, nil
}

// Fig11cTable renders the thread sweep.
func Fig11cTable(points []ThreadPoint) *Table {
	t := &Table{
		Title:  "Fig. 11(c): multi-core scalability of DPar2 (T_1 / T_M)",
		Header: []string{"threads", "time", "speedup"},
		Notes:  []string{"paper: near-linear, 5.5x at 10 threads (slope 0.56); single-core hosts show ~1.0x"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Threads), secs(p.Time.Seconds()), fmt.Sprintf("%.2fx", p.Speedup))
	}
	return t
}

// TallSlicePoint is one measurement of the tall-slice sharding comparison.
type TallSlicePoint struct {
	ShardRows  int // the Config.ShardRows setting (negative = sharding off)
	Shards     int // shards of the tallest slice under that setting
	Preprocess time.Duration
	Total      time.Duration
	Fitness    float64
}

// TallSlice compares DPar2 with stage-1 sharding disabled against sharded
// runs on an irregular tensor dominated by one tall slice — the straggler
// regime the ShardRows knob exists for: stage-1 cost and scratch are
// proportional to the tallest slice, so sharding it spreads the sketch over
// the pool and bounds per-shard scratch. tallRows is the tallest slice's
// height; the remaining k-1 slices are an order of magnitude shorter. Every
// run is on eng under opts, whose resolved rank also sizes the tensor.
func TallSlice(ctx context.Context, eng *repro.Engine, seed uint64, tallRows, j, k int, shardRows []int, opts ...repro.Option) ([]TallSlicePoint, error) {
	spec, err := eng.ResolveSpec(opts...)
	if err != nil {
		return nil, err
	}
	g := rng.New(seed)
	rows := make([]int, k)
	rows[0] = tallRows
	for i := 1; i < k; i++ {
		rows[i] = tallRows/16 + g.Intn(tallRows/16+1)
	}
	ten := datagen.LowRank(g, rows, j, spec.Rank, 0.01)

	sketch := rsvd.Options{Oversample: spec.Oversample}.SketchWidth(spec.Rank)
	var out []TallSlicePoint
	for _, sr := range shardRows {
		res, err := eng.Decompose(ctx, ten, with(opts, repro.WithShardRows(sr))...)
		if err != nil {
			return nil, fmt.Errorf("tall-slice ShardRows %d: %w", sr, err)
		}
		out = append(out, TallSlicePoint{
			ShardRows:  sr,
			Shards:     rsvd.NumShards(tallRows, j, repro.Config{ShardRows: sr}.ShardRowsThreshold(), sketch),
			Preprocess: res.PreprocessTime,
			Total:      res.TotalTime,
			Fitness:    res.Fitness,
		})
	}
	return out, nil
}

// TallSliceTable renders the sharding comparison.
func TallSliceTable(points []TallSlicePoint) *Table {
	t := &Table{
		Title:  "Tall-slice sharding: stage-1 sketch of the tallest slice in row shards",
		Header: []string{"ShardRows", "shards", "preprocess", "total", "fitness"},
		Notes: []string{
			"sharding bounds stage-1 scratch by O(ShardRows·(R+s)) per shard and spreads one tall slice across the pool",
			"fitness is sketch-dependent but equivalent; on noise-free data the settings agree to ~1e-9 (shard equivalence tests)",
		},
	}
	for _, p := range points {
		label := fmt.Sprintf("%d", p.ShardRows)
		if p.ShardRows < 0 {
			label = "off"
		}
		t.AddRow(label, fmt.Sprintf("%d", p.Shards),
			secs(p.Preprocess.Seconds()), secs(p.Total.Seconds()),
			fmt.Sprintf("%.6f", p.Fitness))
	}
	return t
}

// Fig8Table reports the slice-height distribution of the two stock
// stand-ins: the p0, p25, p50, p75, p90 and p100 percentiles of the sorted
// time lengths (the paper plots the sorted curve; these points capture its
// shape and long tail).
func Fig8Table(datasets []Dataset) *Table {
	t := &Table{
		Title:  "Fig. 8: slice time-length distribution (percentiles)",
		Header: []string{"dataset", "p0", "p25", "p50", "p75", "p90", "p100"},
		Notes:  []string{"long tail: a few stocks listed far longer than the median (drives Alg. 4's load balancing)"},
	}
	for _, d := range datasets {
		if d.Sectors == nil {
			continue // stock datasets only
		}
		sorted := slices.Sorted(slices.Values(d.Tensor.Rows()))
		pick := func(q float64) int { return sorted[int(q*float64(len(sorted)-1))] }
		t.AddRow(d.Name,
			fmt.Sprintf("%d", pick(0)), fmt.Sprintf("%d", pick(0.25)),
			fmt.Sprintf("%d", pick(0.5)), fmt.Sprintf("%d", pick(0.75)),
			fmt.Sprintf("%d", pick(0.9)), fmt.Sprintf("%d", pick(1)))
	}
	return t
}
